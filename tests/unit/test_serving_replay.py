"""Pin the temporal dispatch loop's output bit for bit.

Every case serves one scenario under one flush mechanism and one policy
and hashes everything a reader of the run can see: the ``ServeReport``
JSON, the per-request ``(rid, completion, latency, service, flush,
world)`` tuples, the flush and world-switch totals with their cycles,
the makespan, the window timeline and the ``serving.flushes`` /
``serving.world_switches`` counters.  The digests were recorded from
the per-quantum loop that picked a request at every quantum; the replay
that serves a fixed dispatch order between events must reproduce them
exactly.

Regenerate (only after an intended change of serving output) by
running this file, which prints the ``DIGESTS`` table to paste below::

    PYTHONPATH=src python tests/unit/test_serving_replay.py
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, defaultdict
from typing import Optional

import pytest

from repro import telemetry
from repro.driver.scheduler import MultiTaskScheduler
from repro.npu.config import NPUConfig
from repro.serving.policies import POLICIES
from repro.serving.queueing import ServeSimulator
from repro.serving.report import ServeReport
from repro.serving.workload import SCENARIOS
from repro.telemetry.metrics import nearest_rank
from repro.telemetry.windows import window_of

TEMPORAL = ("flush-tile", "flush-layer", "flush-layer5")
SEEDS = (0, 1)
WINDOWS = (None, 10.0)
#: Long enough for queues to build under every scenario's design load.
DURATION_MS = 300.0

CASES = [
    (scenario, mechanism, policy, seed, window_ms)
    for scenario in sorted(SCENARIOS)
    for mechanism in TEMPORAL
    for policy in POLICIES
    for seed in SEEDS
    for window_ms in WINDOWS
]


def case_id(scenario, mechanism, policy, seed, window_ms) -> str:
    windows = "off" if window_ms is None else f"{window_ms:g}ms"
    return f"{scenario}/{mechanism}/{policy}/s{seed}/w{windows}"


def serve_run(scheduler: MultiTaskScheduler, scenario: str,
              mechanism: str, policy: str, seed: int,
              window_ms: Optional[float]):
    """One temporal run: its outcome and its two serving counters."""
    with telemetry.scoped(trace=False, profile=False) as scope:
        outcome = ServeSimulator(
            SCENARIOS[scenario], mechanism=mechanism, policy=policy,
            seed=seed, duration_ms=DURATION_MS, scheduler=scheduler,
            config=scheduler.config, window_ms=window_ms,
        ).run()
        counters = (scope.metrics.get("serving.flushes"),
                    scope.metrics.get("serving.world_switches"))
    return outcome, counters


def serve_digest(scheduler: MultiTaskScheduler, scenario: str,
                 mechanism: str, policy: str, seed: int,
                 window_ms: Optional[float]) -> str:
    """sha256 over every observable output of one temporal run."""
    outcome, counters = serve_run(scheduler, scenario, mechanism, policy,
                                  seed, window_ms)
    h = hashlib.sha256()
    h.update(ServeReport.build(outcome, scenario=SCENARIOS[scenario])
             .render("json").encode())
    for c in outcome.completed:
        h.update(repr((c.request.rid, c.completion, c.latency, c.service,
                       c.flush, c.world)).encode())
    h.update(repr((outcome.flushes, outcome.flush_cycles,
                   outcome.world_switches, outcome.world_cycles,
                   outcome.makespan, counters)).encode())
    if outcome.windows is not None:
        h.update(json.dumps(outcome.windows.timeline(),
                            sort_keys=True).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def scheduler():
    """One scheduler for every case: its analytic and quanta caches are
    pure, so sharing them changes no output, only the test's run time."""
    return MultiTaskScheduler(NPUConfig.paper_default())


@pytest.mark.parametrize(
    "scenario, mechanism, policy, seed, window_ms", CASES,
    ids=[case_id(*case) for case in CASES],
)
def test_temporal_run_is_bit_identical(scheduler, scenario, mechanism,
                                       policy, seed, window_ms):
    key = case_id(scenario, mechanism, policy, seed, window_ms)
    assert serve_digest(scheduler, scenario, mechanism, policy, seed,
                        window_ms) == DIGESTS[key]


WINDOWED = [case for case in CASES if case[-1] is not None]


@pytest.mark.parametrize(
    "scenario, mechanism, policy, seed, window_ms", WINDOWED,
    ids=[case_id(*case) for case in WINDOWED],
)
def test_window_percentiles_are_nearest_rank_of_its_requests(
        scheduler, scenario, mechanism, policy, seed, window_ms):
    """Each window's p50/p99 is the nearest rank over the latencies of
    the requests that completed in it, read from ``outcome.completed``."""
    outcome, _ = serve_run(scheduler, scenario, mechanism, policy, seed,
                           window_ms)
    windows = outcome.windows
    latencies = defaultdict(list)
    for c in outcome.completed:
        w = window_of(c.completion, windows.window_cycles)
        latencies[(w, c.request.tenant)].append(c.latency)
    per_ms = windows.cycles_per_ms
    for record in windows.timeline():
        for tenant, stats in record["tenants"].items():
            sample = Counter(latencies[(record["window"], tenant)])
            for pct in (50, 99):
                rank = nearest_rank(sample, pct)
                expected = None if rank is None else rank / per_ms
                assert stats[f"p{pct}_ms"] == expected, (record["window"],
                                                         tenant, pct)


DIGESTS = {
    'burst/flush-tile/fifo/s0/woff':
        '554180af201676e3a8ea0f908a5d053f97209f4922dffa6257e169258f84e500',
    'burst/flush-tile/fifo/s0/w10ms':
        'd8429415e2f1bb98012c49bbb7687c43bb0e5298644bbbb557d680592cee3468',
    'burst/flush-tile/fifo/s1/woff':
        '12e2e8f78281fc7d5793d82ddbcbef00cf4775ee8c221c1c5d1692d59d2423b4',
    'burst/flush-tile/fifo/s1/w10ms':
        'd2b72dc0f29648fc9135b6d146eecb43088c141aca48cb380daf212db6089db0',
    'burst/flush-tile/rr/s0/woff':
        'f54f6cfbef6d91fdf65bc08ebc2de66bae8f57964c2d8f90fc86d89399767090',
    'burst/flush-tile/rr/s0/w10ms':
        '4eb4636a70fb4816eb5cb90ae1d78c0702152cda4cccd63fb431ad1d4cd35c9a',
    'burst/flush-tile/rr/s1/woff':
        '4378da97e1ea484c0846bc0476fea8e6c2b485c3a4633394b6c08f2ab594d494',
    'burst/flush-tile/rr/s1/w10ms':
        'b63f3b88c4b606ab779380ad5a7a85f7465729604e8332ef7cd55ad60dea9f81',
    'burst/flush-tile/priority/s0/woff':
        '7fe57d1041b1b1c759b5196d99a6739e9ac874d4b93d9d13333883a728798c7f',
    'burst/flush-tile/priority/s0/w10ms':
        '9d642e61d35e40465e27db7f73aa5d1ad014dbd0dd6c97eec93e68b442ff456d',
    'burst/flush-tile/priority/s1/woff':
        '405173294c70ba2ce6bbee94600a541b37dac7759e43094e8ae7fdd8927d8ec6',
    'burst/flush-tile/priority/s1/w10ms':
        'c40d33767bfe385a8adffc709e3e730e1adf3abe175a3f22cc53caf0f2c766ba',
    'burst/flush-tile/spatial/s0/woff':
        'fae7d7c8918edcfc74b13a3da5203974dcab9a1bdecb75875e9c6baadee88f92',
    'burst/flush-tile/spatial/s0/w10ms':
        '7c5b6b8e2edbd681c013605de5572d31fe16ff2f5a982c9d421d6f2ffff5c6a3',
    'burst/flush-tile/spatial/s1/woff':
        '5b8a87db7672ebd7d348fb4de6b9f3b5ffff59f213b8c53d979b0d9cd846e19b',
    'burst/flush-tile/spatial/s1/w10ms':
        'd8554229ec53a616b8a761e0d766667a277e67ccaf88b326690520f578465c44',
    'burst/flush-layer/fifo/s0/woff':
        '220b59e637f3a016f628fe8d0f65afd52dda1c8ec7ddfaaba933e87e809972bd',
    'burst/flush-layer/fifo/s0/w10ms':
        '5b231cdc839f6f47fd37ded7d41dc42275a9efe4f4eff2d602da5af8e7d04f2d',
    'burst/flush-layer/fifo/s1/woff':
        'a4474c5a16a23fed965150dd0bfbe19488f824712a484e5c87b31ec18443e4c7',
    'burst/flush-layer/fifo/s1/w10ms':
        '72b123bb2bbe54c7d2d69b50f9463885ca2f6981e195f25dabb86034ee859b23',
    'burst/flush-layer/rr/s0/woff':
        'ef525bcf773665ecb7272917f337c0c0a43acd8f2303aada574add2218b2100b',
    'burst/flush-layer/rr/s0/w10ms':
        '8ccee3917a113d2e196f0c61c91e8e1d7bdc6391475402f7cb9c7307f0ba5130',
    'burst/flush-layer/rr/s1/woff':
        '18951722895f8addf6e8d19848d6e28c60c470a1b55df5cb71d510e8dd018e3b',
    'burst/flush-layer/rr/s1/w10ms':
        'f577260b15407789c54c0c40ab4b79b408f0202ca266918ad0a882c2347bbb48',
    'burst/flush-layer/priority/s0/woff':
        '61af90d02461242bc19018c92f369b011da3fd5fecbd579c744845c533d29d17',
    'burst/flush-layer/priority/s0/w10ms':
        '1ad5394270b99d016f2b9186ce02d9f0903be69c268491a1e2ceab7aafdc74d8',
    'burst/flush-layer/priority/s1/woff':
        'cefb07d9e872458b2492fbb404d6d1051a6da205c8b970e9d2dcdf751119e7fc',
    'burst/flush-layer/priority/s1/w10ms':
        '322b961a9167608456d3b1321dc63ea7459b9499531c9081a84e5d07848d6034',
    'burst/flush-layer/spatial/s0/woff':
        '43f7ee0abbeab05576d4b1f1364fd94e4a73503e8f19ae7fbb9fccab2f035a78',
    'burst/flush-layer/spatial/s0/w10ms':
        '8eba37605de710368bfb6ee9e1fa955a77dfe6ef6d5ee3f0f312fce030fddcc9',
    'burst/flush-layer/spatial/s1/woff':
        'd0cb146e21d83d396b44846246c6bfd7f5854ccc35dc968fae3bbe794acd71b9',
    'burst/flush-layer/spatial/s1/w10ms':
        '4769e532bd5da0574c3f25e6662bf0de37e3b3e9f987348e3ce15f57187a67cb',
    'burst/flush-layer5/fifo/s0/woff':
        '062ea4b8f9b3d86ced8d4f7616cab0bd7918df46f4330ca694c3d90fbe0c2e82',
    'burst/flush-layer5/fifo/s0/w10ms':
        '6e0e8dcad34eaaa2fdbf339ad4e204d8b89159e6afc054b73f586f09f95f786a',
    'burst/flush-layer5/fifo/s1/woff':
        'a5df3cf46e4972c3d5c691f9554ae05e6056ccf0af38c99fd0172adb1bef46d4',
    'burst/flush-layer5/fifo/s1/w10ms':
        '9755fc3d5ca52af24a26c52910620601b8836224011fe3f50b307719716dc2ff',
    'burst/flush-layer5/rr/s0/woff':
        '57f1bd5e3d8459dc866947cf54cf745704f7e14a719e8036ee598391add68980',
    'burst/flush-layer5/rr/s0/w10ms':
        '48d7aca6511270576290e04096912ff38d7d1e1bdc32b95265ff04a542b9dc4d',
    'burst/flush-layer5/rr/s1/woff':
        'd3884db15ab86424707a722a9e537aa219cacb86690f6214abdf87a6eb9e0d35',
    'burst/flush-layer5/rr/s1/w10ms':
        '9e8a469a31cd14534afeaa7e7ee6d655ba6d8a217a7a21194b634a79273be289',
    'burst/flush-layer5/priority/s0/woff':
        'c3f28e603bbefff6f03d587b91363d83f73a7a205fbb857dee10d8379ea0f212',
    'burst/flush-layer5/priority/s0/w10ms':
        'd2a7ffbe8f2994ecbede6e95e76fa16fa61402665fadd1e7b2bc571adaa763f1',
    'burst/flush-layer5/priority/s1/woff':
        '9f6dd0363bce0610eacc3bc6fa4711f5690929cf937ff2b12484626f59bddca0',
    'burst/flush-layer5/priority/s1/w10ms':
        '7282b44edb5a913e8daf2e8f1b8bbc2bb14e97abbe5021e4d2e5d79bddd256dd',
    'burst/flush-layer5/spatial/s0/woff':
        '888bf219a197bba291a89a4e79e156ecfc0ac6045913c0bd027c02172f121dd4',
    'burst/flush-layer5/spatial/s0/w10ms':
        'd488a490c467965693a469b8d2f037a52188de7b76273c6a9deef6eb3cc6b649',
    'burst/flush-layer5/spatial/s1/woff':
        'c62dd732b96da4473509f5130c958c605b2009496cd204b69ddef1529dce781c',
    'burst/flush-layer5/spatial/s1/w10ms':
        'fd52b6d67da259c6c2059f6f53a9c7a7c9750f0576b843f1b095cd4e8af442e5',
    'default/flush-tile/fifo/s0/woff':
        '8132877ccff362c7b7a9a580ae75b3424876e62ab295f3ad9ff5b2fbbdb49130',
    'default/flush-tile/fifo/s0/w10ms':
        'aef29518bcabc0b93aca5e3f62edb3aa26ca5a111f8612a45f3098d1fd4d03d6',
    'default/flush-tile/fifo/s1/woff':
        '0c2644b447d1c14236d8e61b7b34317e9081c41dcf4f32518483841817b3d6c0',
    'default/flush-tile/fifo/s1/w10ms':
        'ebab5d617d8cb1d3f8d3c84c1e6178034047099e04fac9e8fa110bc1e1851304',
    'default/flush-tile/rr/s0/woff':
        '1db5613c488d8c40b7b1039ade65227f51f9bb03e603bf76211f058f365310a3',
    'default/flush-tile/rr/s0/w10ms':
        'cee2c9f9f139843fe672595d945e65e35eb1527971a19341ee1d77e9a9f52a2f',
    'default/flush-tile/rr/s1/woff':
        'bdc26172ff8ad843a62bf80c4c1a740fb98f8ac684546e922a8b00a8a072b018',
    'default/flush-tile/rr/s1/w10ms':
        '7e6db2ea4db98a89a034b1f10b9b0e2c049e2bb247a6466c71e33c716f60fd33',
    'default/flush-tile/priority/s0/woff':
        'd78e5f3d2aded935a3f7a4aef4a9a33970a0d32dafbc6e3924879e79b7f59a33',
    'default/flush-tile/priority/s0/w10ms':
        '88158d369ac34afe3cba39af3abad7714bc0fddd3d4fd59132a0ad829441130e',
    'default/flush-tile/priority/s1/woff':
        '255244b945bc30e5890c9b3a54f50fe26963adc0bb3ec54ffc9622f0737f95bc',
    'default/flush-tile/priority/s1/w10ms':
        '8848e5396d71f5c9deb9eadde3428ab229fc777ae66867749bb69c97042c94b9',
    'default/flush-tile/spatial/s0/woff':
        'cc31e228d5da560c45a99e300ce7e6a730423cd8507747162116a69266d1a791',
    'default/flush-tile/spatial/s0/w10ms':
        '0e6b677125b9437b451be6d80e22e119b06c1021cc2eb1c04beccca255e38058',
    'default/flush-tile/spatial/s1/woff':
        '8f54565cc0a8ca7412c02b0e4619bd734a1fb25e68e862859b477b3133500725',
    'default/flush-tile/spatial/s1/w10ms':
        'd6f012b55a325f74033a505b6f0238e767364fe0a01a8a467c0666b6c4c0bdfb',
    'default/flush-layer/fifo/s0/woff':
        '2b2ea573c0baa25b306d991a8df3ce2e6711977d6fac39b63471e38fe20b96a4',
    'default/flush-layer/fifo/s0/w10ms':
        'dc334999746538f044ba57ee6a2d123971119f31550312b19d77b0d3ba5f70e7',
    'default/flush-layer/fifo/s1/woff':
        '57dedc793b777fd5fea1b09da4c57c8b217adf498d079a7c5f18a259adf6d1a2',
    'default/flush-layer/fifo/s1/w10ms':
        'de759f9505c20668f8311edcd04b891950e9dce02cf8abb4d6c42d36438bc64b',
    'default/flush-layer/rr/s0/woff':
        'c13305d87efb5f6295cfe1a9b7854928946571b362f8849fb79ca01697ea5350',
    'default/flush-layer/rr/s0/w10ms':
        'b84a6fa076ae5dd59972553f7cdd9ccb184ae10ca72d2c8d1048d6f3b7147242',
    'default/flush-layer/rr/s1/woff':
        '20808573fdb70b79b7851ad7a5857b2f3707627fb6e26b3a745fb59d8755f008',
    'default/flush-layer/rr/s1/w10ms':
        '8a86b360d7ab3048f7a40ec1ce2c691ae4a9a25bbcc1e8e87d9f1ff9c69f780d',
    'default/flush-layer/priority/s0/woff':
        '8a57650c01545d199dca97b1c875f7bc1bd970051c2d00bea65adaad704abc3f',
    'default/flush-layer/priority/s0/w10ms':
        '7fb1ac68110f55e89166840cdfb2a993d35431d6eb6e726b31c366a3df7e1a54',
    'default/flush-layer/priority/s1/woff':
        'bb4e6cfcb1437d2ca0da94da2b114b645c4fce9878166a29e2653b146f658976',
    'default/flush-layer/priority/s1/w10ms':
        '530697921e50e6ffcd3ed253e6c4391a6372d4baff1e303eb216e53c9fc87c1e',
    'default/flush-layer/spatial/s0/woff':
        '426a2e568395348799b991db84f829dfddf462ba3084aa4065d52908c6925e9a',
    'default/flush-layer/spatial/s0/w10ms':
        '9574bb7514195fc6bb1c979f1e7e4ab4a98ca6c64bc34cd607e5cf3fa2d397d3',
    'default/flush-layer/spatial/s1/woff':
        '9e60ab578ae4a2c66cce3c4da7f6fefd7d2c2745549474cf5aa1709533b05a5a',
    'default/flush-layer/spatial/s1/w10ms':
        '2bcbda346d705f67f8ab359a5caf41f2134d1bf1a7c2027ec4fefb1435a534dd',
    'default/flush-layer5/fifo/s0/woff':
        '1e28ed783becbc596561edaf059615b42b037cfbf7b0276384b57ff99e1c6123',
    'default/flush-layer5/fifo/s0/w10ms':
        'b9469205238ffdd6f3e6f871b3d67738d68b101fbead4c57b9fdc011142dd423',
    'default/flush-layer5/fifo/s1/woff':
        'a423721829f1fdfa36a68894ff1ffbe067fe821ce99d111ac565e44c57e4f7b0',
    'default/flush-layer5/fifo/s1/w10ms':
        '068463b5826ffadd410b021b160eb3a7ad68f1abe567f6f1a499d98e05f3c82c',
    'default/flush-layer5/rr/s0/woff':
        'd9d6400e100f1ca8f837deef89347566288afbcdf01433e43b6c8a5447bf29e8',
    'default/flush-layer5/rr/s0/w10ms':
        '8f49b12e83eabe68de4a23769a9a3659248ac1abaa059c4a6db5eb203f05278f',
    'default/flush-layer5/rr/s1/woff':
        '5ba938fd5ed4f7fe6dde22bfeaa75d33aa43990dffa8519d618e71791ad4a006',
    'default/flush-layer5/rr/s1/w10ms':
        'ee282fba51127814fc3155c8dd81172f82e3513fd1a7c92cdb3723777122725e',
    'default/flush-layer5/priority/s0/woff':
        '370284a96e80ba93d8b006c310d42737908ee98ec0178f788885c882f4ad0d81',
    'default/flush-layer5/priority/s0/w10ms':
        'dd8030f63aaa7ef6d6a48534e53724b962d2cafbedfd10aefec787870788ab88',
    'default/flush-layer5/priority/s1/woff':
        '0c1a0d00b08bcf8e3abfa3ed577607c4b8a654bbabce3df84581419d69972988',
    'default/flush-layer5/priority/s1/w10ms':
        '07ec0e917a3bed89e8c517dbcaf0ec924c264059e95e33103ff51a91a79a29c3',
    'default/flush-layer5/spatial/s0/woff':
        'a99b04ce763601149da0823968e74fa770b8e319eb10db9127940a55d574895d',
    'default/flush-layer5/spatial/s0/w10ms':
        '533f190356825ef1015356719a89b138c7da328449d985d7043482bfd83a0c2c',
    'default/flush-layer5/spatial/s1/woff':
        'ce2a9359f91a767224da89ff3c021009c66824b3f98bb4c0b1f5d0ee08dd558e',
    'default/flush-layer5/spatial/s1/w10ms':
        'c6f090418c239137ac50ac46b19531769af1c5de85a8da7a3534ff9544d4012a',
    'nlp-mix/flush-tile/fifo/s0/woff':
        '4951733826e5cce0518a97c5a3f5020c8ee77d67db7f2d00ed81098b70ec25a6',
    'nlp-mix/flush-tile/fifo/s0/w10ms':
        'c98d3158c9b4bd1ecbe43f23d5241e0966a5cb5874a8e238b5a3d96af4a394dc',
    'nlp-mix/flush-tile/fifo/s1/woff':
        'e3338efc2e87cf7caa66be954a566d6a17004edaea7d8e26bd8fd13fd13d9178',
    'nlp-mix/flush-tile/fifo/s1/w10ms':
        'df15fcfe4c9fd59001000aae23159f1af264f77d647c8fad12b36e9fcdea9b3c',
    'nlp-mix/flush-tile/rr/s0/woff':
        'af09b9ad6ef2dd8a22ebf657940625bc0c13341a39b099c4e4d5fd3849fa130a',
    'nlp-mix/flush-tile/rr/s0/w10ms':
        '05dea8c7ba62472dcbfdaafc816d71b6aac7e685d8c54663505e4a0a212b9bdc',
    'nlp-mix/flush-tile/rr/s1/woff':
        'e084064a614e8f3587936d493b8388a070320e3903bd20c9013cd7e05969ea99',
    'nlp-mix/flush-tile/rr/s1/w10ms':
        '0b8e19a85184e24e7d37e1b9bcc05ab89e6830ae98d6e1247a25c2636ec9db5a',
    'nlp-mix/flush-tile/priority/s0/woff':
        'ffedabe9ace700eb8bc00bd046539ab79ac6c112a524e30ac0f09a25e8792423',
    'nlp-mix/flush-tile/priority/s0/w10ms':
        '7f39d30356a2ac05d8b9dfef2cbb5b9544216934e7bb69a60ede510f5cadf295',
    'nlp-mix/flush-tile/priority/s1/woff':
        'aef6f4970510d7b6aa121706b623654b761525915904627f971531ab2060e357',
    'nlp-mix/flush-tile/priority/s1/w10ms':
        '65b53792870979d592c65134b7e31b2daf6d14131a514942146274a92df79039',
    'nlp-mix/flush-tile/spatial/s0/woff':
        'a98956bff589f88081f3b9fd59c6b0aa822bc2464436e9cbf6551e9c9da8a097',
    'nlp-mix/flush-tile/spatial/s0/w10ms':
        'b7d72ec3b7842226856b1fcf0162e5ff1b1f004022c583e6660e27008bed6029',
    'nlp-mix/flush-tile/spatial/s1/woff':
        '9b47c03e9829b20079f5aeff6da2106aaed72d8491dcf6f35a8fb11140534c59',
    'nlp-mix/flush-tile/spatial/s1/w10ms':
        '8abd4aaa8c523df696b31c6e0e90b57e8742fe13fd65487ee799e303a0ed411d',
    'nlp-mix/flush-layer/fifo/s0/woff':
        '81e55785e779d5780773c4547dbefd000f8c3ec9e39e71785db5c652509519a8',
    'nlp-mix/flush-layer/fifo/s0/w10ms':
        '791050c466a5625e37c84c2cf6f4b301919288fbd391cf24cb696a5b55ec8d79',
    'nlp-mix/flush-layer/fifo/s1/woff':
        '61f3dbd4e5f3473f3e02c20b93f2d9c936def06a22ce41fb9c7778b4231080a7',
    'nlp-mix/flush-layer/fifo/s1/w10ms':
        '16aa80af4e5dd5053acbaf803e61146ec388fa51cf6cffadd06f9b3b4c1ef9d8',
    'nlp-mix/flush-layer/rr/s0/woff':
        '17336316fa4d7ea0f92db53fb959b677c8cd04ad7a34d6049870f76064bf5d62',
    'nlp-mix/flush-layer/rr/s0/w10ms':
        '602ba25c268d6e8bd01a243727c17f71155cea2762b8801b8546fd6419dd660f',
    'nlp-mix/flush-layer/rr/s1/woff':
        '9c7a59db5f1491c55c131e4384640b28cc10ab9de9792ca54dc8ca44c5d91d1a',
    'nlp-mix/flush-layer/rr/s1/w10ms':
        'a6f72d027b772b5f89d61442dea7ae7bf366a9905aa49099b69f659cd573579d',
    'nlp-mix/flush-layer/priority/s0/woff':
        '8dbf9f7f52c8d1ee4d59a5eaf9a8e65c35338b25ff4fe06355d73f8d82364e2c',
    'nlp-mix/flush-layer/priority/s0/w10ms':
        '2eca954027c2aacc12cd6c6a057e8681d6a394411b19a1472e660aa7cf2f5b82',
    'nlp-mix/flush-layer/priority/s1/woff':
        '0c508e64c83581be88b20960f89b615d88fc27be775c4c810a9a39cae85e5c6f',
    'nlp-mix/flush-layer/priority/s1/w10ms':
        '128cb2010b1e997416b2f5fb2141ba7f41323874eaf2715047cbd3217bdd70b6',
    'nlp-mix/flush-layer/spatial/s0/woff':
        '81fda556fbbbff6cd06d3e58c6d248660b68529e53160bb39767e423ff4fe17f',
    'nlp-mix/flush-layer/spatial/s0/w10ms':
        '6d3c5287248a006108faeb76c5d1bfacb3bb9ad7ebbe25f11e9ee831f61583ac',
    'nlp-mix/flush-layer/spatial/s1/woff':
        'ad46eaa46a584622ac0008924d882a55980cfde486d9c53dc75cd276180f93c3',
    'nlp-mix/flush-layer/spatial/s1/w10ms':
        '0b08dcaad75a3652237b5ad4443c5f1a9bfd4d901417651c6bbed2cb701c39a4',
    'nlp-mix/flush-layer5/fifo/s0/woff':
        '28e5f84b76d4a7a2964325273fabb4eb5649940c3a52b99b45e72adf1c0873d7',
    'nlp-mix/flush-layer5/fifo/s0/w10ms':
        'd99c9310cf8a5a4c61013f3759365ae45c0027b0017e81890b348cea945048f1',
    'nlp-mix/flush-layer5/fifo/s1/woff':
        '9ba63a74e3852b32ce6bfd7dd182785cec427874fd47a6a797312035660c1dfc',
    'nlp-mix/flush-layer5/fifo/s1/w10ms':
        'ca65c871dd9ce384e33b1148f0b1abc71071a1cf29a8d9e838211a416b3e0083',
    'nlp-mix/flush-layer5/rr/s0/woff':
        'ccd3b0eca534d70a76456562c235780406321232218ad6051b19dbe692630899',
    'nlp-mix/flush-layer5/rr/s0/w10ms':
        '5de0620c3f456e466f7c216d3a81f7159face11a483a59faa0a4434e0c7d423c',
    'nlp-mix/flush-layer5/rr/s1/woff':
        '52b79fe973f9d8efae7ca745d2387c711173ec557d3cd8285de7efe847023b58',
    'nlp-mix/flush-layer5/rr/s1/w10ms':
        '8078168f66c7b0950e47b60f6b082e8aad68ea8d0a6c047890f53b72e0ef7d26',
    'nlp-mix/flush-layer5/priority/s0/woff':
        '11102ff23b92279414021101cf2216da42aab76bf443ba8f1aa5af531f1f8679',
    'nlp-mix/flush-layer5/priority/s0/w10ms':
        '6b4b5075feed2a91b0fd5bff10254b3f47378be293fa517e582d68bcf5a5e85f',
    'nlp-mix/flush-layer5/priority/s1/woff':
        '179a1a0afec3cd5007f6265f729c9f8bdafcbe75807540e6d1b7146612591b7d',
    'nlp-mix/flush-layer5/priority/s1/w10ms':
        '0317a8e9331fcfc4bdf1c212cf2d9026ee1daf710179a7949092a4d1e20d983a',
    'nlp-mix/flush-layer5/spatial/s0/woff':
        'f2834a66a005a013a1d76e6252097b1b4ef02006c2930ef022177a498caf5df9',
    'nlp-mix/flush-layer5/spatial/s0/w10ms':
        'b3d2e7d5f1ef3bf476ae1c97c8985083264d10200d5cf3f4018ff06c62081452',
    'nlp-mix/flush-layer5/spatial/s1/woff':
        '26fd261527b2c8bc7e971d414d87ee3eab4caaa8d978a91f48fed2af705478af',
    'nlp-mix/flush-layer5/spatial/s1/w10ms':
        '848996e1b6b432cf46b1592b74c4460715e548091eadcd7acfbf0da8e7ae6770',
    'secure-heavy/flush-tile/fifo/s0/woff':
        'de6201ed4351fb5da66dd16b9f18b0bc064a7f22ad6458f85aca3e616f562d75',
    'secure-heavy/flush-tile/fifo/s0/w10ms':
        'c75bf490bc69f4c14dc36abba2c2bc40599b43c93136ca99617f15108b057b1a',
    'secure-heavy/flush-tile/fifo/s1/woff':
        '6237b5305c80fcd3b584e5fc83b41fca37ff939ed779c0331657f0b5219a3e82',
    'secure-heavy/flush-tile/fifo/s1/w10ms':
        'b95bb641cc7adab03a096bddb438f9bfe47a2a8b968c218dc3e2b152ce648b98',
    'secure-heavy/flush-tile/rr/s0/woff':
        '811d195078c5365350eb6548af0a7fe3008155e370d6ae785f4588c626967fd7',
    'secure-heavy/flush-tile/rr/s0/w10ms':
        'dd4a156bfcaf5d5d71047604e3b3daef3e57631afe608d04da9c4722447797e8',
    'secure-heavy/flush-tile/rr/s1/woff':
        'd12fc4e10dcd3933343c9062a8742e0a49558056074aae64a9b45d8be6bb4599',
    'secure-heavy/flush-tile/rr/s1/w10ms':
        '7c367e6cfc9c44c338cd8ae387521cf124884454b3bfc57b2e1555535d0807a6',
    'secure-heavy/flush-tile/priority/s0/woff':
        '31184973ad92869276dbecb9a2ec31a55fbcba054b8b8e0d66bd7b17edecee3f',
    'secure-heavy/flush-tile/priority/s0/w10ms':
        'af111446bcb57335ceab5ddb7fcce3206ad2b2fde46b163650cef651709c7ef5',
    'secure-heavy/flush-tile/priority/s1/woff':
        'e637a4d00c4fab3f9205e3962f25b30b9165c982be513059fd259d50c8bd84ba',
    'secure-heavy/flush-tile/priority/s1/w10ms':
        '7a0774712f2acb7858687e600dbc1f80e76d30e8f3ee429f1479e6a795e7bea9',
    'secure-heavy/flush-tile/spatial/s0/woff':
        '13bbc4738bee2a8b14a3c590885332fa3db65fb745fed3c02d4e02298d54b900',
    'secure-heavy/flush-tile/spatial/s0/w10ms':
        '7ce9a53d0fcee862d34f76c34b2883157aba836525cc8aeb25c2d9f6b8fa9c8f',
    'secure-heavy/flush-tile/spatial/s1/woff':
        '2f79b9bed63e16a5614617499c913460c8f5b8a91cb9a8963399f243a10d4ab1',
    'secure-heavy/flush-tile/spatial/s1/w10ms':
        '6d1b86453eea0c014c44cdf3763f4bbea978e2fb8da73fefdd98d5120880e375',
    'secure-heavy/flush-layer/fifo/s0/woff':
        '7a1c88a824d397669d7b21445f9340560abcfc6e71e75c85fa8afb5420b76dba',
    'secure-heavy/flush-layer/fifo/s0/w10ms':
        '565f79502033d4c8e719511a20ba22d5c1ee30d5e751d2992a806f0887e59882',
    'secure-heavy/flush-layer/fifo/s1/woff':
        '4db944e2de43aa5c9d7c7c48b31f03341c8da3cdb855fdc4f4e169351e0dc85e',
    'secure-heavy/flush-layer/fifo/s1/w10ms':
        '65a4957ff6eb1d6002c76ccd5443df4afad62ecf2b6019dcdf68136eef8fd1e3',
    'secure-heavy/flush-layer/rr/s0/woff':
        '7e2ac318e99896bf7f5ef8377cc0c5372fee03e8ca2873704635d0f5bb9d269b',
    'secure-heavy/flush-layer/rr/s0/w10ms':
        'e0e85593fd260dd5e65ac735ec0be4208ecdf152800fade7fde7845833caf0d8',
    'secure-heavy/flush-layer/rr/s1/woff':
        '1ff4c01c940f4b57f4c78c9cc2f3a5acb6d6c5902e18be3402136bd01aae9c0c',
    'secure-heavy/flush-layer/rr/s1/w10ms':
        'afa198739608a3c11cc9c3ce7d639cc2550364438132be7642b10618324260a6',
    'secure-heavy/flush-layer/priority/s0/woff':
        '1dbb7c4a80d7ef75b74f54a86a8a49c502c7e694315458bc1a83f8b8c16ed3ec',
    'secure-heavy/flush-layer/priority/s0/w10ms':
        'edb0fb7c84932dabadf2e7857cccef423ca41913c8ab4f0491803cdb45171695',
    'secure-heavy/flush-layer/priority/s1/woff':
        '7b1463dd6408bd103034be1527bd8c1dc43e0ad71e14e03564f281bffb9591fd',
    'secure-heavy/flush-layer/priority/s1/w10ms':
        'b38d19c05c8ddb875cda8e2381dff9b0c067839bef734c63709bb180ef26eded',
    'secure-heavy/flush-layer/spatial/s0/woff':
        '70de5ea8f2e83ecc06dd1f03700fac17de08310e7637be7f83ae9724d233e252',
    'secure-heavy/flush-layer/spatial/s0/w10ms':
        '7bdf42e4ad707860b1be424adbbb45c687c3fe481c4cf26fda45a5835d1ec604',
    'secure-heavy/flush-layer/spatial/s1/woff':
        '53d630df0d65164e3ba370667ab0281899d013c569f6f2b9df581628e5b5eea9',
    'secure-heavy/flush-layer/spatial/s1/w10ms':
        '149757c9122455d0bcad32ad644059f96daba092291ff55f8c505008be62ebb6',
    'secure-heavy/flush-layer5/fifo/s0/woff':
        '1cee7970375bcef5635c2c7737fc47d34e007ae3fe911cb9234fa468cd4cb951',
    'secure-heavy/flush-layer5/fifo/s0/w10ms':
        'de95176cdb6109f01b464f4ce7208c5feee3deb47758bfae73f63ee7088d5225',
    'secure-heavy/flush-layer5/fifo/s1/woff':
        'fe86e3647798c05646c3d092e6d59992e533bb42172f8fd82cb5efb7c153442d',
    'secure-heavy/flush-layer5/fifo/s1/w10ms':
        '1b122bfb2f2657e6326b0f619fce6533b1f37e92299de9c4293ae0b553b960e0',
    'secure-heavy/flush-layer5/rr/s0/woff':
        'fce961e2ee2f561b4e0aede07c5138d6095c7ed4997b4bc52c325c67e2e853d9',
    'secure-heavy/flush-layer5/rr/s0/w10ms':
        '09769a5155aaee31f56f2b6827097dd44eda25d7bd9c66744bafe0f3e8a53533',
    'secure-heavy/flush-layer5/rr/s1/woff':
        '91663dddb60519db95876c34e7587d7ef1b70ae7c2d55c82cd20921eaf82c37e',
    'secure-heavy/flush-layer5/rr/s1/w10ms':
        '32efe2a61b2f0fddc948f1f2bb3698987f9ec727c1ec2c284ac2fc85eabe31d4',
    'secure-heavy/flush-layer5/priority/s0/woff':
        'a870969ae7c5d3e723d53612c131929d9528e7d5d75c5f008323118b0b96df28',
    'secure-heavy/flush-layer5/priority/s0/w10ms':
        'bad36390ef38318a8d1acfb9bb2cdf4f5c190e5cbeb6a2e647400af3e85adba1',
    'secure-heavy/flush-layer5/priority/s1/woff':
        '439c143e2245f23160e3fa3009fc79df3ad324152718ae60427090a169baeca6',
    'secure-heavy/flush-layer5/priority/s1/w10ms':
        '70ac53e57265dbd786a89612f7315bbb7e349ec0b0749696c22ee1e97d1290ef',
    'secure-heavy/flush-layer5/spatial/s0/woff':
        '41285a3e8d8e22f4d8662541bcd5b143699ad71564b9674288eb16eb7f8871a1',
    'secure-heavy/flush-layer5/spatial/s0/w10ms':
        'a68340b1681ee6cec7f2812b121032d0f296f779dbdc50990b22105fdc6ec616',
    'secure-heavy/flush-layer5/spatial/s1/woff':
        '4c9eb4f78db19a42e57da97ed733cbf7f16bc22ae8046f2e31f741110ee0464f',
    'secure-heavy/flush-layer5/spatial/s1/w10ms':
        'ebfc84425b11744429e472a58297d4aa2066af80ec1f2e562f5d393e4b3e5d27',
}


if __name__ == "__main__":
    shared = MultiTaskScheduler(NPUConfig.paper_default())
    print("DIGESTS = {")
    for case in CASES:
        print(f"    {case_id(*case)!r}:\n"
              f"        {serve_digest(shared, *case)!r},")
    print("}")
