"""Golden digests: seeded results stay byte-identical across refactors.

Each constant is the SHA-256 of `repr((best_objective, best_position.tobytes(),
nfe, trace))` for seeds 1 and 2 in turn, at a 6,000-NFE budget (with the
accuracy stop where an optimum is known, as the CLI sets it). A refactor that
claims to keep seeded results must leave every constant as it is; a change
that alters results on purpose says so and regenerates them.
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
    # 13 atoms: rows of up to 12 pair terms, so a change to the order in which
    # the energy is summed changes the bits (3 atoms give rows of at most 2)
    "lennard_jones13": dict(name="lennard_jones", n_atoms=13),
}

# A small colony with a short limit: scouts fire, and the adaptive strategies
# grow and shrink their colonies.
SCOUTING = dict(limit=5, initial_colony=20, sn_min=10, sn_max=40)

GOLDEN = {
    "sphere/basic": "a4701bac9ad231cd9b88db7c9c5eee2e4475c05c2ead3ac400450d56bc1976da",
    "sphere/sac": "aaf47370acfd7399c176b46e8a5a8f18cc4d006fdea7928cf80bf7c36db69b35",
    "sphere/sac1": "7aeec80e9b88a747540114e8add1b8ef683cb1a8c84594ba4e7fe11df6bf6e22",
    "sphere/sac2": "5a242c3fa7491809ca4bc02d8df0328a16fe0bbb416703a9308b035f0c1a4193",
    "sphere/gbest": "669e879b5d037f713ba8c43542d5840697deddcd6ee3a91982df94d7ba777ded",
    "griewank/basic": "9dc80466e01674b287f28219e1cbcd2266f66f0918916c1c7d98ebecec6703c0",
    "griewank/sac": "e478e250a085c2a72ab9a789c56f5d6f126185948997025cb2026c3f92ea0d5c",
    "griewank/sac1": "94c20a4fe910408cc6ef77abc1c9abd4b02dd2600fc7ba58cba3896ee1a4a0fa",
    "griewank/sac2": "5b2b9260ee599706c029c2023e82908ab33458d352dd4d493ae70379c8ec9e00",
    "griewank/gbest": "8c44d4e7a11fee4fdb28a1ca1262f935af9577d19904b91ab323d0cace848dfe",
    "ackley/basic": "a91f91a81f53c065ff4a1bf0e0d85875692698dca56a084d7fea589c39b0baf9",
    "ackley/sac": "6f7bf19c6f515630d75d8cc3d5185f78e15ee0f09b9025977fb4022d325c9a4d",
    "ackley/sac1": "2eb50855b6860fce7b833d32c46e4621cdfa7b0ec9768cdb8c871f22df239ff6",
    "ackley/sac2": "cfee8d8c647b1e1e2065d1d251edb7c97f8f01af07eb7b63a9be5b4082e57788",
    "ackley/gbest": "ee1809359d8d19aa7b104ef0050030051655767cae68922ce21406191de22e50",
    "rastrigin/basic": "fefb14a02d5c847ef19a4c7d524af957075aeae98ce721cdc713351658eb5db1",
    "rastrigin/sac": "3ff3776cf58cb35b7c4f9d6fc4ac8be0fa0db9e8b988b6e3625ec225455f1ee1",
    "rastrigin/sac1": "232ee95977c6ed8545191e09a9878c006fb860fe2290793768db677121a7348b",
    "rastrigin/sac2": "de54d09d5a158331d62f752d773ed46e51931b09204f6184acbd755eb75301fb",
    "rastrigin/gbest": "1965d48c63231d9ca80555f18c4067450ab0e8e472000d33accaf0193c0073fe",
    "schaffer/basic": "1cc071405edb9b3c0b473d593f008ee26ce3193db1ceeefae473ad447c8e57b1",
    "schaffer/sac": "56f920886fc72a84f572681d261451ce2e51b4c16c9d0f100bc6731f2fdd5d77",
    "schaffer/sac1": "4b03af752ef006bcbd1529e30e74ba4a04d082cd3fc0ac319e95bd2ba77a78fc",
    "schaffer/sac2": "23a78027696b3bf6a904e3bd56d2f39b96eec6ea936a6afe8ffe55c83e87923f",
    "schaffer/gbest": "e4513565f4d4349b6f280aa71c80a5110eaf17fd965ac9d2af9bce2f12702cdb",
    "gear_train/basic": "ce59f7f11d59caedaa77287b976e59754fcf55aee8cc976301e0bac881357776",
    "gear_train/sac": "9b755d9e6451d1e57a650b88aaba2d401b3b8208b32efd722f6d0da06011aa65",
    "gear_train/sac1": "c217864a666cb412faa91fd979d669a582738d2744b080d22d4bf4bbf3ebb481",
    "gear_train/sac2": "91fb5abf059a2e1f03619c2ef63cc93df3d8fd52b612de0a0780ea3c4a761082",
    "gear_train/gbest": "bdefb661e31346bfd0b82d9fbaf788f40f21f223d03040708e7471b1b819da42",
    "lennard_jones/basic": "7ed299826bf1eeecace85847c7b1ccd20ca119f293db3876c032cf2755171c26",
    "lennard_jones/sac": "cab145eee84edc77c7f0a97c98136a10646d95f12b42ad09db3464179ec64408",
    "lennard_jones/sac1": "f72e6e16ed478da65745b3f8ebe35beb764d6c8a64111c3d96605b3f5f2571d5",
    "lennard_jones/sac2": "f8b9a6973637bcbedb94e6ad2190753fc7c7f7ccf77b49764c8e685e54d379af",
    "lennard_jones/gbest": "72d1463b280b05cacc1ae0ab6e3daef4ef31e981a87d5f6e8b429c5214e79a72",
    "lennard_jones13/basic": "38e8dfcb778a22b07ddfa26aaf97d1c2f32a502d24d0642174cdbf1551f53f20",
    "lennard_jones13/sac": "1bcd4656b0379f14867f055db9139a446ed8ddc19820d06e586ef4ca2ccde6e8",
    "lennard_jones13/sac1": "0bb29bea391d308d7d68c8c3def0f67ec4eeb8596ad22f4825154042c7cff0c6",
    "lennard_jones13/sac2": "da3e2323bf1815f31e5a7489a166b49f8eefffb5d727ebc172c65ece04c8013d",
    "lennard_jones13/gbest": "4ddaed271c0ef9ed799debd8f6402e3b57aba90f5058adac6460ca741566e6da",
    "air_heater/basic": "d481c54f532ec863cc59cb9f70062b5b916ca9ec39eef44a25b34d47cc84ba09",
    "air_heater/sac": "a0660004ca9fbbcc34bf8fc3412d982be422358be3db3dc6fb2451a9cfb347b8",
    "air_heater/sac1": "f587612c6e7d3467c6ed3854cd55ca44cc758d0b142a985c5b7df7d12429e7f0",
    "air_heater/sac2": "91a2c5a656a4d2fc74d396a9f60cc3062c57cade1372fad0769585c7e492afd3",
    "air_heater/gbest": "53af03c2a69b934934b6397d3586ee5c0ab58eeab3d820e945834545b02fd775",
    "gas_production/basic": "d7ea7dc93bd2160a57efa289eaee9a82ced11b0a85b4ecbfc2cf721d6c81f71f",
    "gas_production/sac": "e5bb15d68eb3ecc4d807bc4f3ceb84405765d2546efe762e08805b31cb5fc566",
    "gas_production/sac1": "209a020d7b2009ce5608d6835753e6c91277c42085945314c44cbe09f1d7b0a1",
    "gas_production/sac2": "77166628e93e00bfc25640bf412eb0c7872c060c9f5cfaab3acfc836a60c9949",
    "gas_production/gbest": "27291bd9f1ec3b7501d3649c121ee483ae436261c425c1532b8a882ea3db3c69",
    "gas_compressor/basic": "a8420409c8ab964e8a32911b38dfe2c922c1d2a77ae5d880cac0f21b80a2adda",
    "gas_compressor/sac": "3184724b64f8fe3e6bcf094df30190b4fd16f2febce5bca6988b0a6430917325",
    "gas_compressor/sac1": "bfaa67f972439984eecb950672a549ff1076fcff30af59e72febddbe43087951",
    "gas_compressor/sac2": "f5ea1da4f0c7482fa01e827b5315a7028943c2561238666dbd661b946cbf220d",
    "gas_compressor/gbest": "d5793bf2df4932d4f37a9f245efece446f157fc5f6a3187d6359290ecb803713",
    "sphere-scouting/basic": "1a6ea37b88bf9b579f2ecaacda6bbc3090782a5a4725ce287e0747797dae2dc7",
    "sphere-scouting/sac": "f0b81c489580f21914fe0e06337b468ae001f31b1404efd23b0173f7464874b2",
    "sphere-scouting/sac1": "650efbdd9a11f5872c12e3d3df621e62283978e709d5dd4d2602a587df01b914",
    "sphere-scouting/sac2": "346a9bd04f9c08bcbefea32b043a8a6401e358620fe71ed2d3e03ae95eea5783",
    "sphere-scouting/gbest": "7c77dec6bcd80118a3d63765355cc772254566620b18668ac1dc1713eda02731",
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
