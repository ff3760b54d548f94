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
from typing import Optional

import pytest

from repro import telemetry
from repro.driver.scheduler import MultiTaskScheduler
from repro.npu.config import NPUConfig
from repro.serving.policies import POLICIES
from repro.serving.queueing import ServeSimulator
from repro.serving.report import ServeReport
from repro.serving.workload import SCENARIOS

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


def serve_digest(scheduler: MultiTaskScheduler, scenario: str,
                 mechanism: str, policy: str, seed: int,
                 window_ms: Optional[float]) -> str:
    """sha256 over every observable output of one temporal run."""
    spec = SCENARIOS[scenario]
    with telemetry.scoped(trace=False, profile=False) as scope:
        outcome = ServeSimulator(
            spec, mechanism=mechanism, policy=policy, seed=seed,
            duration_ms=DURATION_MS, scheduler=scheduler,
            config=scheduler.config, window_ms=window_ms,
        ).run()
        counters = (scope.metrics.get("serving.flushes"),
                    scope.metrics.get("serving.world_switches"))
    h = hashlib.sha256()
    h.update(ServeReport.build(outcome, scenario=spec).render("json").encode())
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


DIGESTS = {
    'burst/flush-tile/fifo/s0/woff':
        '554180af201676e3a8ea0f908a5d053f97209f4922dffa6257e169258f84e500',
    'burst/flush-tile/fifo/s0/w10ms':
        'f7d7cbe22337767a7e6fe6806e3a526b45561aa734ac7c56b5bee1314e219944',
    'burst/flush-tile/fifo/s1/woff':
        '12e2e8f78281fc7d5793d82ddbcbef00cf4775ee8c221c1c5d1692d59d2423b4',
    'burst/flush-tile/fifo/s1/w10ms':
        '3d3058bac86b883cc430ad44d528738e30d536f63adf82412137491ffa724815',
    'burst/flush-tile/rr/s0/woff':
        'f54f6cfbef6d91fdf65bc08ebc2de66bae8f57964c2d8f90fc86d89399767090',
    'burst/flush-tile/rr/s0/w10ms':
        '234eb0c4584ab14a6a0b1c60695a8f13dd1dc251bb3274b603958fbe8bc3d890',
    'burst/flush-tile/rr/s1/woff':
        '4378da97e1ea484c0846bc0476fea8e6c2b485c3a4633394b6c08f2ab594d494',
    'burst/flush-tile/rr/s1/w10ms':
        'e0edaee9e61826a75f69cf2d6ff7696c125981a7da4d5a5946c8158ba0c2f419',
    'burst/flush-tile/priority/s0/woff':
        '7fe57d1041b1b1c759b5196d99a6739e9ac874d4b93d9d13333883a728798c7f',
    'burst/flush-tile/priority/s0/w10ms':
        '1a6d120d688f9f1086571ba2bf9fb434c9a0c7dbb912624501ae3a8534afe4c8',
    'burst/flush-tile/priority/s1/woff':
        '405173294c70ba2ce6bbee94600a541b37dac7759e43094e8ae7fdd8927d8ec6',
    'burst/flush-tile/priority/s1/w10ms':
        '66c35179f523a316714ed9a843d198f41151a1dd2ce096a7ca321f61936feaf4',
    'burst/flush-tile/spatial/s0/woff':
        'fae7d7c8918edcfc74b13a3da5203974dcab9a1bdecb75875e9c6baadee88f92',
    'burst/flush-tile/spatial/s0/w10ms':
        'bfed1e9fa728bcaa0f565c2234980607fe4d1f6e363ea1ce7d18827c3d655c68',
    'burst/flush-tile/spatial/s1/woff':
        '5b8a87db7672ebd7d348fb4de6b9f3b5ffff59f213b8c53d979b0d9cd846e19b',
    'burst/flush-tile/spatial/s1/w10ms':
        'ad077be0292010203f6e8f5f36cc71bb0a4998c5a907982e6771547cc2be25c4',
    'burst/flush-layer/fifo/s0/woff':
        '220b59e637f3a016f628fe8d0f65afd52dda1c8ec7ddfaaba933e87e809972bd',
    'burst/flush-layer/fifo/s0/w10ms':
        '68ae4f49d64c1e7384dff5ef29e7cfbf441e7fa63ea740b510bd04f38dbca0de',
    'burst/flush-layer/fifo/s1/woff':
        'a4474c5a16a23fed965150dd0bfbe19488f824712a484e5c87b31ec18443e4c7',
    'burst/flush-layer/fifo/s1/w10ms':
        '2f46eea9c0bdb67caa067b677d506b63626c5fad198f07975e1277c0b5473054',
    'burst/flush-layer/rr/s0/woff':
        'ef525bcf773665ecb7272917f337c0c0a43acd8f2303aada574add2218b2100b',
    'burst/flush-layer/rr/s0/w10ms':
        '2502548bf94620ace45b7bd46edc73ce6255c1c818d60b53783592f486b3a281',
    'burst/flush-layer/rr/s1/woff':
        '18951722895f8addf6e8d19848d6e28c60c470a1b55df5cb71d510e8dd018e3b',
    'burst/flush-layer/rr/s1/w10ms':
        '37cc241c79e4ba365a32cda6e79c9fbed349f801c88e857c5123ead6a422fb70',
    'burst/flush-layer/priority/s0/woff':
        '61af90d02461242bc19018c92f369b011da3fd5fecbd579c744845c533d29d17',
    'burst/flush-layer/priority/s0/w10ms':
        '9c505c88bfc30cb7c56817aafc0b6a898d1057052b40f528dfa5b7acf434ff28',
    'burst/flush-layer/priority/s1/woff':
        'cefb07d9e872458b2492fbb404d6d1051a6da205c8b970e9d2dcdf751119e7fc',
    'burst/flush-layer/priority/s1/w10ms':
        '465799365e5f2d874b90adc9dae47303452b1152f27d8d8484b911c4dda7488d',
    'burst/flush-layer/spatial/s0/woff':
        '43f7ee0abbeab05576d4b1f1364fd94e4a73503e8f19ae7fbb9fccab2f035a78',
    'burst/flush-layer/spatial/s0/w10ms':
        'f6748ed25610334eb6218e2082d436ffdccf2c9a74efa810fe99d0b0d3ae3873',
    'burst/flush-layer/spatial/s1/woff':
        'd0cb146e21d83d396b44846246c6bfd7f5854ccc35dc968fae3bbe794acd71b9',
    'burst/flush-layer/spatial/s1/w10ms':
        '3fa2f560f2307024b2cb958e43e9492caa9cfbc8147e3c8c0c2efeffbeb9d983',
    'burst/flush-layer5/fifo/s0/woff':
        '062ea4b8f9b3d86ced8d4f7616cab0bd7918df46f4330ca694c3d90fbe0c2e82',
    'burst/flush-layer5/fifo/s0/w10ms':
        'd2225fda19459d47baaeb803d29cccd18483509a1432aa3d72033d61d3f9414a',
    'burst/flush-layer5/fifo/s1/woff':
        'a5df3cf46e4972c3d5c691f9554ae05e6056ccf0af38c99fd0172adb1bef46d4',
    'burst/flush-layer5/fifo/s1/w10ms':
        '56736a8227371bad612f13aed6b3f04d599a4658872a118a4431203171d14275',
    'burst/flush-layer5/rr/s0/woff':
        '57f1bd5e3d8459dc866947cf54cf745704f7e14a719e8036ee598391add68980',
    'burst/flush-layer5/rr/s0/w10ms':
        '408cfba82e167db2513a100a91bbf1d8d281b60ea624c6282133b4084a0feb9c',
    'burst/flush-layer5/rr/s1/woff':
        'd3884db15ab86424707a722a9e537aa219cacb86690f6214abdf87a6eb9e0d35',
    'burst/flush-layer5/rr/s1/w10ms':
        '3dd9a0425440508b4e8b7c424f1d891b82d3990143f88945d090cdcbb9335062',
    'burst/flush-layer5/priority/s0/woff':
        'c3f28e603bbefff6f03d587b91363d83f73a7a205fbb857dee10d8379ea0f212',
    'burst/flush-layer5/priority/s0/w10ms':
        '46832cd6f95f3fd8aad6cc81ce4827c662e12bb351c35229243f3f5f0e945c48',
    'burst/flush-layer5/priority/s1/woff':
        '9f6dd0363bce0610eacc3bc6fa4711f5690929cf937ff2b12484626f59bddca0',
    'burst/flush-layer5/priority/s1/w10ms':
        '1f912aec7342a18a6ef6ccc79f0d7ab31464fd4b7c6119de2da71a6b4d5a07ac',
    'burst/flush-layer5/spatial/s0/woff':
        '888bf219a197bba291a89a4e79e156ecfc0ac6045913c0bd027c02172f121dd4',
    'burst/flush-layer5/spatial/s0/w10ms':
        'b69c9e5db6e5728965823e089bf9d166046630437e9249bede6666d351a2dc6d',
    'burst/flush-layer5/spatial/s1/woff':
        'c62dd732b96da4473509f5130c958c605b2009496cd204b69ddef1529dce781c',
    'burst/flush-layer5/spatial/s1/w10ms':
        '0ab47f7ac75348e1b597f2de6986b94f6c5b96acbcb07ef52455aab4c6a5624a',
    'default/flush-tile/fifo/s0/woff':
        '8132877ccff362c7b7a9a580ae75b3424876e62ab295f3ad9ff5b2fbbdb49130',
    'default/flush-tile/fifo/s0/w10ms':
        'c8b92e0c76170742a1ac20221ef41410092ccf0b020af353fc4cabcff426794c',
    'default/flush-tile/fifo/s1/woff':
        '0c2644b447d1c14236d8e61b7b34317e9081c41dcf4f32518483841817b3d6c0',
    'default/flush-tile/fifo/s1/w10ms':
        '00cb2b4d6fd2362d68838b8dd36e534163c5baee81d2ea038b51807e7df8c299',
    'default/flush-tile/rr/s0/woff':
        '1db5613c488d8c40b7b1039ade65227f51f9bb03e603bf76211f058f365310a3',
    'default/flush-tile/rr/s0/w10ms':
        '5b23612d008b88cd73c904a3ba16a151a73da90c19071fe16bdff24d8cd0aac9',
    'default/flush-tile/rr/s1/woff':
        'bdc26172ff8ad843a62bf80c4c1a740fb98f8ac684546e922a8b00a8a072b018',
    'default/flush-tile/rr/s1/w10ms':
        '529e1ede03d45477dbe216ad86b3034679c7b3ff56ea6e682cd1fc15d466853c',
    'default/flush-tile/priority/s0/woff':
        'd78e5f3d2aded935a3f7a4aef4a9a33970a0d32dafbc6e3924879e79b7f59a33',
    'default/flush-tile/priority/s0/w10ms':
        '66c62bc0498c6c5bcfbd573329f7cb207a7cadf86a1f9e23719de89e0d893138',
    'default/flush-tile/priority/s1/woff':
        '255244b945bc30e5890c9b3a54f50fe26963adc0bb3ec54ffc9622f0737f95bc',
    'default/flush-tile/priority/s1/w10ms':
        '279cda0026d07ff346bf5354deb0cc0425aa9724c933a6153d6a0d19b879d340',
    'default/flush-tile/spatial/s0/woff':
        'cc31e228d5da560c45a99e300ce7e6a730423cd8507747162116a69266d1a791',
    'default/flush-tile/spatial/s0/w10ms':
        '5ee18dfd3aaf3556624f353b29d87556b8ed13f84249d1ad71f64546618ca111',
    'default/flush-tile/spatial/s1/woff':
        '8f54565cc0a8ca7412c02b0e4619bd734a1fb25e68e862859b477b3133500725',
    'default/flush-tile/spatial/s1/w10ms':
        '10adbbf7bc9bb0297abde08192e6444db56c9bbe9f1186f9f3148d77aa8d42dc',
    'default/flush-layer/fifo/s0/woff':
        '2b2ea573c0baa25b306d991a8df3ce2e6711977d6fac39b63471e38fe20b96a4',
    'default/flush-layer/fifo/s0/w10ms':
        'eb6d47dfe95b9fbbc858c4d36d983eba42704258ea220ac9e3665b3b2ef1bec0',
    'default/flush-layer/fifo/s1/woff':
        '57dedc793b777fd5fea1b09da4c57c8b217adf498d079a7c5f18a259adf6d1a2',
    'default/flush-layer/fifo/s1/w10ms':
        'b2a289e6b6d4c5eaec53fb0bc05239b33bc00e4f4ad258fe18a7b58a7096e278',
    'default/flush-layer/rr/s0/woff':
        'c13305d87efb5f6295cfe1a9b7854928946571b362f8849fb79ca01697ea5350',
    'default/flush-layer/rr/s0/w10ms':
        'c3aae88d1acc4d8fbba2b2ace9be70795c4094b945f0545eaa731c10d69e8989',
    'default/flush-layer/rr/s1/woff':
        '20808573fdb70b79b7851ad7a5857b2f3707627fb6e26b3a745fb59d8755f008',
    'default/flush-layer/rr/s1/w10ms':
        'cc886ec82f2eb383a7b29f5841fd43739d81667b9618caa0ce5549dd3d580bf0',
    'default/flush-layer/priority/s0/woff':
        '8a57650c01545d199dca97b1c875f7bc1bd970051c2d00bea65adaad704abc3f',
    'default/flush-layer/priority/s0/w10ms':
        '759939ea1e74c522a1cbbb95f6e8d90016c15e85af09693a77cf8deae2e5040b',
    'default/flush-layer/priority/s1/woff':
        'bb4e6cfcb1437d2ca0da94da2b114b645c4fce9878166a29e2653b146f658976',
    'default/flush-layer/priority/s1/w10ms':
        'bb2a4e86420ef3e351245a3155976b34bdcd0315a7fd6ec5f67a58b31f4fa5c9',
    'default/flush-layer/spatial/s0/woff':
        '426a2e568395348799b991db84f829dfddf462ba3084aa4065d52908c6925e9a',
    'default/flush-layer/spatial/s0/w10ms':
        '95b27cad3f22cca67343d33c26c16357cd2107a29533e21f7efc54ac75e0c3ec',
    'default/flush-layer/spatial/s1/woff':
        '9e60ab578ae4a2c66cce3c4da7f6fefd7d2c2745549474cf5aa1709533b05a5a',
    'default/flush-layer/spatial/s1/w10ms':
        '5e779f522bed159701392a2f5af96483c49866d389d79591855aa58b4b5927b4',
    'default/flush-layer5/fifo/s0/woff':
        '1e28ed783becbc596561edaf059615b42b037cfbf7b0276384b57ff99e1c6123',
    'default/flush-layer5/fifo/s0/w10ms':
        'f4d8cc60c36c9aa8cbb516300327b577cd4c2c96098c203d2e18b35a5bfc05cb',
    'default/flush-layer5/fifo/s1/woff':
        'a423721829f1fdfa36a68894ff1ffbe067fe821ce99d111ac565e44c57e4f7b0',
    'default/flush-layer5/fifo/s1/w10ms':
        '9e3a7a18183ed17692b63d0abe4a9c85504f4b54d7fa39240f7c9e63c682ab05',
    'default/flush-layer5/rr/s0/woff':
        'd9d6400e100f1ca8f837deef89347566288afbcdf01433e43b6c8a5447bf29e8',
    'default/flush-layer5/rr/s0/w10ms':
        '96bad950922372661ca64ce60da117a40239f5e7985d46a33609df88a588e9b5',
    'default/flush-layer5/rr/s1/woff':
        '5ba938fd5ed4f7fe6dde22bfeaa75d33aa43990dffa8519d618e71791ad4a006',
    'default/flush-layer5/rr/s1/w10ms':
        '84f0fa2acc7cbda7ed5d354f1ef87a2cf26760a78afad07d35544f5f6f307d08',
    'default/flush-layer5/priority/s0/woff':
        '370284a96e80ba93d8b006c310d42737908ee98ec0178f788885c882f4ad0d81',
    'default/flush-layer5/priority/s0/w10ms':
        '9b132485a1685d577c1c1393d924391794b0eda578ae9d288086e631cea8fb61',
    'default/flush-layer5/priority/s1/woff':
        '0c1a0d00b08bcf8e3abfa3ed577607c4b8a654bbabce3df84581419d69972988',
    'default/flush-layer5/priority/s1/w10ms':
        'f1e7ef2c2734a2f276693f699e4e8a3d61f763fd66a5f3774184f726f0f65ee8',
    'default/flush-layer5/spatial/s0/woff':
        'a99b04ce763601149da0823968e74fa770b8e319eb10db9127940a55d574895d',
    'default/flush-layer5/spatial/s0/w10ms':
        '689c2526e4a756f2766f0663f1b80f4ec26e8a042ea1a9ee4a3521e63d976be8',
    'default/flush-layer5/spatial/s1/woff':
        'ce2a9359f91a767224da89ff3c021009c66824b3f98bb4c0b1f5d0ee08dd558e',
    'default/flush-layer5/spatial/s1/w10ms':
        '6b543a95c0fd325dc58f6abfcbfa7a26617f9060377bd02c8106b438672d362d',
    'nlp-mix/flush-tile/fifo/s0/woff':
        '4951733826e5cce0518a97c5a3f5020c8ee77d67db7f2d00ed81098b70ec25a6',
    'nlp-mix/flush-tile/fifo/s0/w10ms':
        '52dba054fba86ba65290e183ab68328835111ca4b4fd4f1558b78bd75456d975',
    'nlp-mix/flush-tile/fifo/s1/woff':
        'e3338efc2e87cf7caa66be954a566d6a17004edaea7d8e26bd8fd13fd13d9178',
    'nlp-mix/flush-tile/fifo/s1/w10ms':
        '55a7ff3ff5ce82abb837e6b06d7804b0502fbb1f6c988a38cad2678d42b0c445',
    'nlp-mix/flush-tile/rr/s0/woff':
        'af09b9ad6ef2dd8a22ebf657940625bc0c13341a39b099c4e4d5fd3849fa130a',
    'nlp-mix/flush-tile/rr/s0/w10ms':
        'dcc67ecf1c0e7629a557352836fb9cc0e72bfbeef697746302371c08528b92bd',
    'nlp-mix/flush-tile/rr/s1/woff':
        'e084064a614e8f3587936d493b8388a070320e3903bd20c9013cd7e05969ea99',
    'nlp-mix/flush-tile/rr/s1/w10ms':
        '1a163892e47ffa9392a0fa880eddba700c79694d5a02f739ff75c66f1eb72d56',
    'nlp-mix/flush-tile/priority/s0/woff':
        'ffedabe9ace700eb8bc00bd046539ab79ac6c112a524e30ac0f09a25e8792423',
    'nlp-mix/flush-tile/priority/s0/w10ms':
        'b9975558a8f75ca5a22055de868b68d95eac155f055c1855401d6555ce5cb087',
    'nlp-mix/flush-tile/priority/s1/woff':
        'aef6f4970510d7b6aa121706b623654b761525915904627f971531ab2060e357',
    'nlp-mix/flush-tile/priority/s1/w10ms':
        'e241e4f2ebc5046fbb20076b90734c1c69b2bd1b21a5f784d8bb9dabc8d52381',
    'nlp-mix/flush-tile/spatial/s0/woff':
        'a98956bff589f88081f3b9fd59c6b0aa822bc2464436e9cbf6551e9c9da8a097',
    'nlp-mix/flush-tile/spatial/s0/w10ms':
        'b24a438e90102ae6dc2f5465e2cb1439457916fd4756ba50dec757c2bfc87bcf',
    'nlp-mix/flush-tile/spatial/s1/woff':
        '9b47c03e9829b20079f5aeff6da2106aaed72d8491dcf6f35a8fb11140534c59',
    'nlp-mix/flush-tile/spatial/s1/w10ms':
        'd26e2170eeda1f84680db68d02977d9b6813bc365bebe8dd9e4515bb521d0d4e',
    'nlp-mix/flush-layer/fifo/s0/woff':
        '81e55785e779d5780773c4547dbefd000f8c3ec9e39e71785db5c652509519a8',
    'nlp-mix/flush-layer/fifo/s0/w10ms':
        'bf6188c3390982795a6256d78a30204a6b600b23c7f94d7f4a645ba1ea495a42',
    'nlp-mix/flush-layer/fifo/s1/woff':
        '61f3dbd4e5f3473f3e02c20b93f2d9c936def06a22ce41fb9c7778b4231080a7',
    'nlp-mix/flush-layer/fifo/s1/w10ms':
        'a1d2ae71c170d18ed4ba2910cdd599cb6450a9f58d06b95464862d3bfbe7c98e',
    'nlp-mix/flush-layer/rr/s0/woff':
        '17336316fa4d7ea0f92db53fb959b677c8cd04ad7a34d6049870f76064bf5d62',
    'nlp-mix/flush-layer/rr/s0/w10ms':
        '09a801a97b3c720b9fb3a217c67f6d785def3f371219d8937362568e464cfe45',
    'nlp-mix/flush-layer/rr/s1/woff':
        '9c7a59db5f1491c55c131e4384640b28cc10ab9de9792ca54dc8ca44c5d91d1a',
    'nlp-mix/flush-layer/rr/s1/w10ms':
        '5bf1c24814b48d75ba7bbd977cf369e43c4733bc745a842ab7b0e3b970c2083e',
    'nlp-mix/flush-layer/priority/s0/woff':
        '8dbf9f7f52c8d1ee4d59a5eaf9a8e65c35338b25ff4fe06355d73f8d82364e2c',
    'nlp-mix/flush-layer/priority/s0/w10ms':
        '6059b587ff2edc6167a82a6c45a52303bc33a199e9ef32227832194fe7bcbe82',
    'nlp-mix/flush-layer/priority/s1/woff':
        '0c508e64c83581be88b20960f89b615d88fc27be775c4c810a9a39cae85e5c6f',
    'nlp-mix/flush-layer/priority/s1/w10ms':
        'd3874c810205b009e042242ab95fcd175fd30c9eb1cfca85171e0098a407ff21',
    'nlp-mix/flush-layer/spatial/s0/woff':
        '81fda556fbbbff6cd06d3e58c6d248660b68529e53160bb39767e423ff4fe17f',
    'nlp-mix/flush-layer/spatial/s0/w10ms':
        'b8c4a6d8d59a8f5928c9ee0c693d225af82ec520d012590f867bd6f297b037e4',
    'nlp-mix/flush-layer/spatial/s1/woff':
        'ad46eaa46a584622ac0008924d882a55980cfde486d9c53dc75cd276180f93c3',
    'nlp-mix/flush-layer/spatial/s1/w10ms':
        '94be2d01a4219c68011ca01887e89b24fcc370b9042d1bd910b448703b1047ad',
    'nlp-mix/flush-layer5/fifo/s0/woff':
        '28e5f84b76d4a7a2964325273fabb4eb5649940c3a52b99b45e72adf1c0873d7',
    'nlp-mix/flush-layer5/fifo/s0/w10ms':
        'b61ac84bc1ba625916ad8f63f842bfde6e8a55b765de842ab649c9baacb3f29b',
    'nlp-mix/flush-layer5/fifo/s1/woff':
        '9ba63a74e3852b32ce6bfd7dd182785cec427874fd47a6a797312035660c1dfc',
    'nlp-mix/flush-layer5/fifo/s1/w10ms':
        '6834b73b4c7d5dc6a6dbd79eaf8174623ba8af4f2b274abc25f3514f7a5313da',
    'nlp-mix/flush-layer5/rr/s0/woff':
        'ccd3b0eca534d70a76456562c235780406321232218ad6051b19dbe692630899',
    'nlp-mix/flush-layer5/rr/s0/w10ms':
        'bf10525d31ab40b4d57a69390c691a7dcf0b8f22153e4dac2c2661bc04fa3444',
    'nlp-mix/flush-layer5/rr/s1/woff':
        '52b79fe973f9d8efae7ca745d2387c711173ec557d3cd8285de7efe847023b58',
    'nlp-mix/flush-layer5/rr/s1/w10ms':
        '303d2876c20d56a089cfd68638720de3af88ac9129917c0c0ebdcea9a05d087c',
    'nlp-mix/flush-layer5/priority/s0/woff':
        '11102ff23b92279414021101cf2216da42aab76bf443ba8f1aa5af531f1f8679',
    'nlp-mix/flush-layer5/priority/s0/w10ms':
        'b942833e10c8f84c1d41e7960e6bf1845c8795fce8b5c32a7e6a044f83de24f2',
    'nlp-mix/flush-layer5/priority/s1/woff':
        '179a1a0afec3cd5007f6265f729c9f8bdafcbe75807540e6d1b7146612591b7d',
    'nlp-mix/flush-layer5/priority/s1/w10ms':
        'ab3be88197b427cda73b7cf90d962724d9ecd49461cc9a5a54f9d92dfd287eff',
    'nlp-mix/flush-layer5/spatial/s0/woff':
        'f2834a66a005a013a1d76e6252097b1b4ef02006c2930ef022177a498caf5df9',
    'nlp-mix/flush-layer5/spatial/s0/w10ms':
        '989a65d1c875797eef54ce4067a5469b49574c5cae7c4a39020cf070e26e1921',
    'nlp-mix/flush-layer5/spatial/s1/woff':
        '26fd261527b2c8bc7e971d414d87ee3eab4caaa8d978a91f48fed2af705478af',
    'nlp-mix/flush-layer5/spatial/s1/w10ms':
        'be96fe89fcea961991a09e2824a08ba643b5daa3fb085c7e8bd6b17608f42a18',
    'secure-heavy/flush-tile/fifo/s0/woff':
        'de6201ed4351fb5da66dd16b9f18b0bc064a7f22ad6458f85aca3e616f562d75',
    'secure-heavy/flush-tile/fifo/s0/w10ms':
        '74365009b445fd9458304f238844d98d2fd4130c075cd460ddc9db6a0b3b21d8',
    'secure-heavy/flush-tile/fifo/s1/woff':
        '6237b5305c80fcd3b584e5fc83b41fca37ff939ed779c0331657f0b5219a3e82',
    'secure-heavy/flush-tile/fifo/s1/w10ms':
        '3636fbff35f81c9f77e4e1f5354f3998f4d47a0e1f1dd0510c8256c63ffd0d18',
    'secure-heavy/flush-tile/rr/s0/woff':
        '811d195078c5365350eb6548af0a7fe3008155e370d6ae785f4588c626967fd7',
    'secure-heavy/flush-tile/rr/s0/w10ms':
        'e2dbb55620cb4d269f46877fb2725edb4baf1a8d0e6f36e611660909477ee893',
    'secure-heavy/flush-tile/rr/s1/woff':
        'd12fc4e10dcd3933343c9062a8742e0a49558056074aae64a9b45d8be6bb4599',
    'secure-heavy/flush-tile/rr/s1/w10ms':
        '98f75e977d7a218e6bcc63f2319d14b28cd2df80f76e8b81c25e76fba71089c9',
    'secure-heavy/flush-tile/priority/s0/woff':
        '31184973ad92869276dbecb9a2ec31a55fbcba054b8b8e0d66bd7b17edecee3f',
    'secure-heavy/flush-tile/priority/s0/w10ms':
        '2bb67232c006f4ee6027b78790a3825b3f8676222384fe44e3caf25b5fd28fa1',
    'secure-heavy/flush-tile/priority/s1/woff':
        'e637a4d00c4fab3f9205e3962f25b30b9165c982be513059fd259d50c8bd84ba',
    'secure-heavy/flush-tile/priority/s1/w10ms':
        '92e68fb5c4d07dad264c78fa791fc80acea50c1773403bc44faecc636e932984',
    'secure-heavy/flush-tile/spatial/s0/woff':
        '13bbc4738bee2a8b14a3c590885332fa3db65fb745fed3c02d4e02298d54b900',
    'secure-heavy/flush-tile/spatial/s0/w10ms':
        '16ed84330908791644ad76c96d2fb1c8ddf2dc22c5f1b44e2fca532fc22e2927',
    'secure-heavy/flush-tile/spatial/s1/woff':
        '2f79b9bed63e16a5614617499c913460c8f5b8a91cb9a8963399f243a10d4ab1',
    'secure-heavy/flush-tile/spatial/s1/w10ms':
        '823226eddad3d31a77e147652de9d612c91c103177c1c63e74c57759eb2f87e7',
    'secure-heavy/flush-layer/fifo/s0/woff':
        '7a1c88a824d397669d7b21445f9340560abcfc6e71e75c85fa8afb5420b76dba',
    'secure-heavy/flush-layer/fifo/s0/w10ms':
        '3079f248f97b8a478169514cf7c3f20399aa010d95ce4a8346fb2227b64f8442',
    'secure-heavy/flush-layer/fifo/s1/woff':
        '4db944e2de43aa5c9d7c7c48b31f03341c8da3cdb855fdc4f4e169351e0dc85e',
    'secure-heavy/flush-layer/fifo/s1/w10ms':
        '88cdd3cb47c81d1b4e20bd8411ce7ca3ec2b16a7ea2e2fa2f69472e5ba4e9c4a',
    'secure-heavy/flush-layer/rr/s0/woff':
        '7e2ac318e99896bf7f5ef8377cc0c5372fee03e8ca2873704635d0f5bb9d269b',
    'secure-heavy/flush-layer/rr/s0/w10ms':
        '47f4535448a5fb1a3cf7e22294a65cfadcf0d22e03da86b5d2f394f8806fe8a1',
    'secure-heavy/flush-layer/rr/s1/woff':
        '1ff4c01c940f4b57f4c78c9cc2f3a5acb6d6c5902e18be3402136bd01aae9c0c',
    'secure-heavy/flush-layer/rr/s1/w10ms':
        '8ff5bed334e123cc9723a2886a47fd411e080e5b509f2c25c6e683f26662f3fe',
    'secure-heavy/flush-layer/priority/s0/woff':
        '1dbb7c4a80d7ef75b74f54a86a8a49c502c7e694315458bc1a83f8b8c16ed3ec',
    'secure-heavy/flush-layer/priority/s0/w10ms':
        '4bb6b20faf50307526f89942852947b51fbc80b7a0676219a5d2dfdfa5fa68cf',
    'secure-heavy/flush-layer/priority/s1/woff':
        '7b1463dd6408bd103034be1527bd8c1dc43e0ad71e14e03564f281bffb9591fd',
    'secure-heavy/flush-layer/priority/s1/w10ms':
        'dbcbc99146b18d9a71adf374fab5cfdee8c1ac21f92fd225de74b908602c1d76',
    'secure-heavy/flush-layer/spatial/s0/woff':
        '70de5ea8f2e83ecc06dd1f03700fac17de08310e7637be7f83ae9724d233e252',
    'secure-heavy/flush-layer/spatial/s0/w10ms':
        'ca038bfb7277b7e62308fa38b930ffa5dc55ca8ade8f5049826293bab97b142a',
    'secure-heavy/flush-layer/spatial/s1/woff':
        '53d630df0d65164e3ba370667ab0281899d013c569f6f2b9df581628e5b5eea9',
    'secure-heavy/flush-layer/spatial/s1/w10ms':
        '0d88efed4c026daad02536a6d4a29029dfa9c7b70dc0825f0f4da0bffa9cb468',
    'secure-heavy/flush-layer5/fifo/s0/woff':
        '1cee7970375bcef5635c2c7737fc47d34e007ae3fe911cb9234fa468cd4cb951',
    'secure-heavy/flush-layer5/fifo/s0/w10ms':
        '5e023614c88fbb1f61904e79fa347e3ac6d3cad59ec6aa4902d1c2881f9ed29f',
    'secure-heavy/flush-layer5/fifo/s1/woff':
        'fe86e3647798c05646c3d092e6d59992e533bb42172f8fd82cb5efb7c153442d',
    'secure-heavy/flush-layer5/fifo/s1/w10ms':
        'b03de37206e4a172ed1f2067d21b6e1b5dd07d799717da969cbdeec6a7ceb758',
    'secure-heavy/flush-layer5/rr/s0/woff':
        'fce961e2ee2f561b4e0aede07c5138d6095c7ed4997b4bc52c325c67e2e853d9',
    'secure-heavy/flush-layer5/rr/s0/w10ms':
        'b1a9545f984a4088a5f5f10f0ee274f42476a96b70ec6efcc50e5b232738821a',
    'secure-heavy/flush-layer5/rr/s1/woff':
        '91663dddb60519db95876c34e7587d7ef1b70ae7c2d55c82cd20921eaf82c37e',
    'secure-heavy/flush-layer5/rr/s1/w10ms':
        '41b44db40e3bb7e75aab0f054da72c910f47769736649fe48d71b78847954bdb',
    'secure-heavy/flush-layer5/priority/s0/woff':
        'a870969ae7c5d3e723d53612c131929d9528e7d5d75c5f008323118b0b96df28',
    'secure-heavy/flush-layer5/priority/s0/w10ms':
        'd84c00ea786c349d25d65d1a08fcb02ac2c3bb4b8329ea2aa451fd5fec016433',
    'secure-heavy/flush-layer5/priority/s1/woff':
        '439c143e2245f23160e3fa3009fc79df3ad324152718ae60427090a169baeca6',
    'secure-heavy/flush-layer5/priority/s1/w10ms':
        '4498d63a05fa20b1d65b66438969fb9e8337944f8e37a32c0c6d32aee93f13fb',
    'secure-heavy/flush-layer5/spatial/s0/woff':
        '41285a3e8d8e22f4d8662541bcd5b143699ad71564b9674288eb16eb7f8871a1',
    'secure-heavy/flush-layer5/spatial/s0/w10ms':
        'c2d889c00f92918e0cf587063e16f8d5f5e034bb3fa59a09a3c32a09ea9703d0',
    'secure-heavy/flush-layer5/spatial/s1/woff':
        '4c9eb4f78db19a42e57da97ed733cbf7f16bc22ae8046f2e31f741110ee0464f',
    'secure-heavy/flush-layer5/spatial/s1/w10ms':
        '5a5eaa58d8f628a202fb3fc9e8fdd953285d4b703c1ffd97e3c6ce87d1d6c09d',
}


if __name__ == "__main__":
    shared = MultiTaskScheduler(NPUConfig.paper_default())
    print("DIGESTS = {")
    for case in CASES:
        print(f"    {case_id(*case)!r}:\n"
              f"        {serve_digest(shared, *case)!r},")
    print("}")
