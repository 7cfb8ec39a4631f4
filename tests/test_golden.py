"""Golden digests: seeded results stay byte-identical across refactors.

Each constant is the SHA-256 of `repr((best_objective, best_position.tobytes(),
nfe, trace))` for seeds 1 and 2 in turn, at a 6,000-NFE budget (with the
accuracy stop where an optimum is known, as the CLI sets it). Those runs all
end on their budget, so the target cells add runs that end on their target,
and their digests add the cycle count. A refactor that claims to keep seeded
results must leave every constant as it is; a change that alters results on
purpose says so and regenerates them.
"""
import hashlib

import pytest

from beehive import engine
from beehive.engine import STRATEGIES, TerminationRule, VariantConfig, run
from beehive.problems import make_problem

MAX_NFE = 6_000
SEEDS = (1, 2)

PROBLEMS = {
    "sphere": dict(dimension=10),
    "griewank": dict(dimension=10),
    "ackley": dict(dimension=10),
    "rastrigin": dict(dimension=10),
    "schaffer": dict(dimension=2),
    "gear_train": {},
    "lennard_jones": dict(n_atoms=3),
    "air_heater": {},
    "gas_production": {},
    "gas_compressor": {},
    # 13 atoms: each move recomputes 12 of the 78 pair energies (3 atoms: 2 of
    # 3), so this pins the incremental Lennard-Jones path at a realistic size
    "lennard_jones13": dict(name="lennard_jones", n_atoms=13),
}

# A small colony with a short limit: scouts fire, and the adaptive strategies
# grow and shrink their colonies.
SCOUTING = dict(limit=5, initial_colony=20, sn_min=10, sn_max=40)

GOLDEN = {
    "sphere/basic": "7ae5dfed54a3e4786e854d0ebf7ec5b9003cf527a442121fea0d130fee603de7",
    "sphere/sac": "89e365489eca494806c3ec16b0500d0e64cc2cf6a57a8aab2d4ee03bd90f7158",
    "sphere/sac1": "93c7db3f7550b00272118ddd802e7099907f44cd5bf62c88dff2a33e84df644a",
    "sphere/sac2": "0352f0c85216ec1cd0701e780d92e388be76bbde2b40785598fdeaf18e9e571e",
    "sphere/gbest": "a9305dccae6d968c7a7bd3d2e9dfeacf74860810e1f836c8d92b3208536ca591",
    "griewank/basic": "69e734b2d0437d8b5db0b3d4f8f46ae2fee92a21abc4fe298da27a385d0b28c3",
    "griewank/sac": "e30be601ec4155f1b82cf4bebb9f71762dab620142eb21fc44ca35f85e2b7023",
    "griewank/sac1": "c6bffa1d46f4f689545f09bce380f98520c425cb6b60373f6098a6c1ba4947ca",
    "griewank/sac2": "a2e5382cf244c923b51635470f659dd107e81ac2bd56ffdbffe8dc98048ea560",
    "griewank/gbest": "96a78c99c47aae321b3fe74eb637bf03a84d81852e15bbc8ecb789c410b10395",
    "ackley/basic": "1bc98e5237e13fb2c030dae318102e1e5f55817d960e1f6f3cf79cfcacbc6a0a",
    "ackley/sac": "8bf043f9422ce62bd41451fdb0cda2f0bf8d8c2b21f40291bfb5d4c3228835ff",
    "ackley/sac1": "183d616b404e72e6b9b59bb111869c7c8d2bb37dbb3d22be1d89e8c2d47550d8",
    "ackley/sac2": "a257e4d53956e547e29ee622bc1ca7b57477df8adadb01bc0f68117f33b7d119",
    "ackley/gbest": "eb35fcaf714267c05f4209f207a7b0cadbe7e41f7e6b858cbe9b54a587ee4f1e",
    "rastrigin/basic": "d237f77576a66537ebecab5ec6f9c68eb6b15790f5be546f792be56400a974a6",
    "rastrigin/sac": "b323ab6f6b6187ffe2c6c5ca2fe371bd6851ebc6965f0e99ba08a6b19a47de3a",
    "rastrigin/sac1": "d9ab5622688e3f76be4223acac09f63a3cdbd01bef671c4a98e0d57726843fad",
    "rastrigin/sac2": "39a913cd501e8108b47f4ec9b53e46c4bd4b861901871555c61a1438ded1b9ae",
    "rastrigin/gbest": "c60b456853afa74354741091bda3103b7893ec25a38df67e4602e294a7307123",
    "schaffer/basic": "816c73e1c41fb04e4011b20ab375b9059ee13237d53bbd3a9df3366ccd7417fd",
    "schaffer/sac": "7076e7f5aa3a51daf5ddfdb6ab5a9879ed28cf49323f127e34bd1df4f6383229",
    "schaffer/sac1": "7eaecff682822f0cc5f780b3ab7677ebef1cb8f5558677366a01f05585cc8802",
    "schaffer/sac2": "084129d331aa7e343baa9fed23ef4681f47b12a9a124ec53e081d4af4dc40e07",
    "schaffer/gbest": "54d82f273d054f026f055b929325857b4b74fc8377ba0a694e07ff614bab59d4",
    "gear_train/basic": "aa251361a526eff067558cf241ccae0daf0784906b0202bb06db19bfa63c56e4",
    "gear_train/sac": "e5fbfbabb7c6482835ef7b498ce1ea0ac3e4e5a4f43941be20c46312b8efd0c7",
    "gear_train/sac1": "df353aba6e6746ee571d3a045f271cf7f2ce283903ced7a3055e73b42e04b027",
    "gear_train/sac2": "4c9154c9abff1eb5c38878368e9d8c58f1b689c72c7e15d4758a3b38894c5072",
    "gear_train/gbest": "90cd4f495ab60440e6b0b97206a0c82a83dd3174e1e87562bbe76c67f2c842b2",
    "lennard_jones/basic": "0dabb8b1fe4916d27c1acc605cfaffb1708330d48fa1aeb7856d28c3bf28cfe7",
    "lennard_jones/sac": "c05f7955f68b6d89bd54546d88afd7fbbd85b69ff43fda7f0bc7ba0bc7845172",
    "lennard_jones/sac1": "c47a1faadfd4f41e4ee5b62c28cc454ad52c600f1ae107ea54650d6a2e931fb3",
    "lennard_jones/sac2": "c16c83be637fa5b86bc67e3162c76796b5de46814861be1c579cbb794fb947b7",
    "lennard_jones/gbest": "d5fbf1cde7eb08579e945f670288322e72ed641a8c2d6dd81297ec94545aefd1",
    "lennard_jones13/basic": "74b80246c78a7fc25be73bb01364684b66633f50ead158be3da485bc8e9c4a02",
    "lennard_jones13/sac": "3376caa1b86a903e38d96bd30435bf0f7128b4d4f27a24a0cefcd62d6dd95ba4",
    "lennard_jones13/sac1": "34df03b3cca14b59b3e98f531d5dcacc75ff68b77a8668c15aa344816967d4a7",
    "lennard_jones13/sac2": "927bf8112047146247b6d9d3a1f08c3566e3a33d751a5664bf956d1f8e0ab93f",
    "lennard_jones13/gbest": "95474f87f691d7567455081d1bb15ed3eddb007d73759055b2c9b34cf794cbdf",
    "air_heater/basic": "925ef271dfa29af801833a366726237615829f8ab20c4d3a418eb8e80f451619",
    "air_heater/sac": "60fc477282c5d17227908f7790caf641a66670ca9ae60b7a0e9579b36258a566",
    "air_heater/sac1": "c0f5439ba9cba52d8cf8186b97c743251f3eeb325faea3595a2490167ff658ac",
    "air_heater/sac2": "20cca8c6655d6f2fbcd777bd2022165227a9cb7e659167d749b8e62048fcf924",
    "air_heater/gbest": "6ffbd0f3f9633367bb820cd0b2a9533ded02185ed003ad4909e86797e6d4d4de",
    "gas_production/basic": "74b37d2114b445ecccb86a07c4977e8e6502eb535ef94520c877b4847d01d624",
    "gas_production/sac": "31a6d919096b4307edbcb9de1de79464696bc71544f464574b820fb555432e73",
    "gas_production/sac1": "314e1424e7c1980b43c4e2e963d817a53e6a5dc963f0a5f74c7caab6bcd455b2",
    "gas_production/sac2": "ee235e1216e21259d15aec60a76ce8dfd0dc1c7277022d31d582e38d10415780",
    "gas_production/gbest": "e80e427b7b5c58b247a02bd56dfc1beaa2e2482a98d0d996d3cd747c6970716d",
    "gas_compressor/basic": "9ca45f1031460278db3022ace937af09edfce106d478cc7a6b4461a803a11803",
    "gas_compressor/sac": "94b82e628df4885850c9fd06964d432238d2c075ba784d50a97c4d4375e6a3d0",
    "gas_compressor/sac1": "70ac47d5050c0e070772528b8571e6688d172e5a05879c082e9330ed2697a17d",
    "gas_compressor/sac2": "5f435007c6592c9a3348e09ba963df5495759ad167b350a00d20fa15d2fd65ff",
    "gas_compressor/gbest": "97276c48e56e95a0089b169d97506a79f2a2c523dc591c7eb04c5fceedf12c8d",
    "sphere-scouting/basic": "f91aefdc6cce9d5bf83d71f156c32bd5d233b1ebeb310520ce10c1d02dedaf5a",
    "sphere-scouting/sac": "280ba85ffd586fb022f39953c9c63b325891b2de7123bba9338e2feacbac90a6",
    "sphere-scouting/sac1": "8fc3ee85d82836741c70f0c608af861ef215c877546a92fbc4d898146659d822",
    "sphere-scouting/sac2": "fcb1b7f37df4eb5e4c4774bc7a8e593f09c123fca146fa93ce9e0c8a8f4aae80",
    "sphere-scouting/gbest": "0bbc2263e9f0bc073455788bfd6c7ad6beefc2a9af2bcf786b33d6a979edf77d",
}


def digest(problem, config) -> str:
    termination = TerminationRule(max_nfe=MAX_NFE, target=problem.known_optimum)
    h = hashlib.sha256()
    for seed in SEEDS:
        r = run(problem, config, termination, seed)
        h.update(repr((r.best_objective, r.best_position.tobytes(), r.nfe, r.trace)).encode())
    return h.hexdigest()


def make(key):
    kwargs = dict(PROBLEMS[key])
    return make_problem(kwargs.pop("name", key), **kwargs)


CELLS = [(name, strategy, {}) for name in PROBLEMS for strategy in STRATEGIES]
CELLS += [("sphere", strategy, SCOUTING) for strategy in STRATEGIES]


def _key(name, strategy, extra):
    return f"{name}{'-scouting' if extra else ''}/{strategy}"


@pytest.mark.parametrize("name,strategy,extra", CELLS,
                         ids=[_key(*c) for c in CELLS])
def test_seeded_results_match_golden_digest(name, strategy, extra):
    problem = make(name)
    got = digest(problem, VariantConfig(strategy=strategy, **extra))
    assert got == GOLDEN[_key(name, strategy, extra)]


# Runs of sphere D=2 with the scouting config that stop on the target 0: to
# within 1e-6, which seeds 1 and 2 reach in the employed phase (basic, sac,
# sac1) or in the onlooker phase (sac2, gbest), and to within 10, which a
# source of the initial colony already meets, so the run makes no cycle.
TARGET_ACCURACY = {"sphere-target": 1e-6, "sphere-target-initial": 10.0}

GOLDEN_TARGET = {
    "sphere-target/basic": "21030b9c97d7a27b4510496ba5451e49ee7a6456ed00dd33c6e3b14e8e753344",
    "sphere-target/sac": "da47181324359e23a69730a355f8d6c82dd6315da566fb786bd1a5da1fcaada5",
    "sphere-target/sac1": "13d0d4e47028e6e280c5dca39f330103b14f87d46b15d262694f7c150b1fb27d",
    "sphere-target/sac2": "1f9e1435b0c75e15ab6e8bfb7d46392e20a74fb315ccac4d3be6db48ed60fabd",
    "sphere-target/gbest": "4d4db33305cd06a712308413c584eea88c1c16d96a853d204494ce08e3f79171",
    "sphere-target-initial/basic":
        "160d0715aa46fdfc746743e40a5a02c6cbad7709c20d9b8bd1f4ba808df59155",
}


def target_run(key, seed):
    """One seeded run of a target cell, checked to have met its target."""
    cell, strategy = key.split("/")
    termination = TerminationRule(max_nfe=MAX_NFE, accuracy=TARGET_ACCURACY[cell], target=0.0)
    r = run(make_problem("sphere", dimension=2), VariantConfig(strategy=strategy, **SCOUTING),
            termination, seed)
    assert termination.reached(r.best_objective)
    return r


@pytest.mark.parametrize("key", GOLDEN_TARGET)
def test_target_stop_matches_golden_digest(key):
    h = hashlib.sha256()
    for seed in SEEDS:
        r = target_run(key, seed)
        h.update(repr((r.best_objective, r.best_position.tobytes(), r.nfe, r.cycles,
                       r.trace)).encode())
    assert h.hexdigest() == GOLDEN_TARGET[key]


def test_target_met_by_the_initial_colony_ends_without_a_cycle():
    for seed in SEEDS:
        r = target_run("sphere-target-initial/basic", seed)
        assert r.nfe == SCOUTING["initial_colony"] // 2
        assert r.cycles == 0
        assert tuple(r.trace) == ((r.nfe, r.best_objective),)


def test_target_cells_stop_in_the_employed_and_the_onlooker_phase(monkeypatch):
    """The last phase that ran before each target stop, over all strategies."""
    calls = []

    def recording(name):
        phase = getattr(engine, name)

        def recorded(colony, *args):
            calls.append(name)
            return phase(colony, *args)
        return recorded

    for name in ("employed_phase", "onlooker_phase", "scout_phase", "adapt_colony_size"):
        monkeypatch.setattr(engine, name, recording(name))
    stops = {}
    for strategy in STRATEGIES:
        for seed in SEEDS:
            calls.clear()
            target_run(f"sphere-target/{strategy}", seed)
            stops[strategy, seed] = calls[-1]
    assert set(stops.values()) == {"employed_phase", "onlooker_phase"}


def test_scouting_config_fires_scouts_and_resizes(monkeypatch):
    """The scouting cells reach the scout and both resize branches."""
    scouts = [0]
    sizes = []
    scout, adapt = engine.scout_phase, engine.adapt_colony_size

    def counting_scout(colony, *args):
        before = colony.nfe
        out = scout(colony, *args)
        scouts[0] += colony.nfe - before
        return out

    def recording_adapt(colony, *args):
        before = len(colony.sources)
        out = adapt(colony, *args)
        sizes.append((before, len(colony.sources)))
        return out

    monkeypatch.setattr(engine, "scout_phase", counting_scout)
    monkeypatch.setattr(engine, "adapt_colony_size", recording_adapt)
    problem = make("sphere")
    digest(problem, VariantConfig(strategy="sac", **SCOUTING))
    assert scouts[0] > 0
    assert any(after > before for before, after in sizes)
    assert any(after < before for before, after in sizes)
