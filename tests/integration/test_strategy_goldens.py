"""Golden digests for every maintenance strategy, not only candidate logging.

``test_golden_bytes.py`` pins CLI outputs, which all run candidate
logging.  This module pins the library path of the other strategies:
each run below drives a :class:`SampleMaintainer` through scalar and
batched inserts under a refresh period that splits batches, refreshes
once more by hand, inserts a tail and checkpoints.  It then hashes the
sample device, the log device, the checkpoint bytes and the online and
offline :class:`AccessStats`.  The digests were recorded before the
strategies moved behind one logger protocol, and a refactor that claims
to change no behaviour must reproduce every one of them.  The
``candidate-stack`` and ``candidate-nomem`` runs pin the refresh path the
``ingest`` benchmark drives; they were recorded with the scalar
per-skip loops, before Stack and Nomem drew their skips a window at a
time in numpy.  The three ``array`` runs (sorted over both logs, and the
unsorted ablation) were recorded before the uniform write phase went
columnar.

If a change alters these bytes on purpose, print ``_digests(name)`` for
each run, paste the new values here, and say in the change description
why the bytes moved.
"""

import hashlib

import pytest

from repro.core.maintenance import SampleMaintainer
from repro.core.policies import PeriodicPolicy
from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.naive import NaiveCandidateRefresh, NaiveFullRefresh
from repro.core.refresh.nomem import NomemRefresh
from repro.core.refresh.stack import StackRefresh
from repro.core.reservoir import build_reservoir
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec


def _naive_full():
    # The full-log source carries the base dataset size; older releases
    # took it as a constructor argument the maintainer then replaced.
    try:
        return NaiveFullRefresh()
    except TypeError:
        return NaiveFullRefresh(0)


#: ``name -> (strategy, algorithm factory, seed)``
RUNS = {
    "immediate": ("immediate", None, 101),
    "full-stack": ("full", StackRefresh, 102),
    "full-nomem": ("full", NomemRefresh, 103),
    "full-naive": ("full", _naive_full, 104),
    "candidate-naive": ("candidate", NaiveCandidateRefresh, 105),
    "candidate-stack": ("candidate", StackRefresh, 106),
    "candidate-nomem": ("candidate", NomemRefresh, 107),
    "candidate-array": ("candidate", ArrayRefresh, 108),
    "full-array": ("full", ArrayRefresh, 109),
    "candidate-array-unsorted": ("candidate", lambda: ArrayRefresh(sort=False), 110),
}

#: ``name -> {artefact: sha256}``
GOLDEN = {
    "immediate": {
        "sample": "77d21425ebebdb9baab09bee7d9c7189378358366210346d5cb32da1e8067cf0",
        "log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "checkpoint": "35e6f3a57670aadd06f644ee400f11df8ca3deae725217e8afcafcb168c9e85b",
        "stats": "e7934e3876d38accab58ba931e56d78b406b307738236f89c088fbfac5b14d82",
    },
    "full-stack": {
        "sample": "9168661d805a6a0d28d2b1ca81b7f0f491308f19af2d352c4045662d4193480a",
        "log": "78939131dfa2495b60ebb8aa890776aa43dc3d56a5a15b84bd2deb8dbbb6c2c7",
        "checkpoint": "6d4171007207ff4a772b05f7f848b438da30b6761e3d94657d3b960adde1a4b3",
        "stats": "a1cccb5a316d1d80a10fff92fa664e938cedda0aa27fc694e5900d80b48de81b",
    },
    "full-nomem": {
        "sample": "694c1313452369b0982d4b7fe931c5b27a399f65949d3c282e5463a658c2e9f6",
        "log": "78939131dfa2495b60ebb8aa890776aa43dc3d56a5a15b84bd2deb8dbbb6c2c7",
        "checkpoint": "537d3c56de2387014a20b23090db5db84ad5b8f2597553fbc45082fdab5932ef",
        "stats": "7f7a29e1627ce69fc8ec0da684071c5ffaa40311c5bc8ace49b74435067e3ee1",
    },
    "full-naive": {
        "sample": "c220607f1768227432e48532cb695ac01094624f9f5cc79babdadce367b0eea1",
        "log": "78939131dfa2495b60ebb8aa890776aa43dc3d56a5a15b84bd2deb8dbbb6c2c7",
        "checkpoint": "401287ce63666bcfd2cfb38fd813a82ef398a64ed0fc0be0c39e8d91bf389ce0",
        "stats": "8a2b46cb26ac4afe1058438cd8fd5c9aa9d5da59a2808da741395e0e61b6ebc3",
    },
    "candidate-naive": {
        "sample": "daf59cc99b333ccae72cf344dd0b11088f4ab1bb8067d48b522a591ae3f10e8d",
        "log": "ade936feb6af26fcac3c2d89fe1e3b10b72c834ec29e39a87f4478b9ff894b91",
        "checkpoint": "6c9010dc0603520dd0acad6bdf88094448183a54182f1ca95dc45cfea708764a",
        "stats": "51d0ab2ce9f500e50e1ba562ae1c7393144f0a3c637360abc13067ce6fee732a",
    },
    "candidate-stack": {
        "sample": "4aaa5ea1743693e9f6b4d8a24cd7d39665415cf1535ff1ff73c884d52ccacc7d",
        "log": "543b29c8bee8be140c00a6c41c57a64def55f56d5dd08bd11145c7471b76a72c",
        "checkpoint": "cdc848c3352549ecc50725c15ab02fade718724966a2daa8ce4a564bd35170e7",
        "stats": "f5a6fdd2ac54bae8af34c97e353a9f4cc3e75bce8aabba15f211562b8b50cc6f",
    },
    "candidate-nomem": {
        "sample": "103ff5d5ec54bb438b3591094a8d88fcd4524c546a08c3deb796f6be9efe7323",
        "log": "11df7df6277fa79ac6a509cfc571b6635f7d4ec3c956205d0f6d55d13b255f27",
        "checkpoint": "c22cc18ced4cd746eaddbba8f6ddb34c19fe4a7f2011d76ac878d15277bcbff8",
        "stats": "836c967c1b4ed663ccc1a1744c68f34094f96db80056b6e77d30146333ab85fb",
    },
    "candidate-array": {
        "sample": "f1cd8a56bf1cb2b36f1f6a8f04ea4731cd7b9a4f7b29169917f8312f85baf480",
        "log": "df316210e450eb8ef2593bd965dce11a576dd42ad1c5969a4a4fefa9a49465c5",
        "checkpoint": "4300c7245f67edd78e5ae7448508a9806aae3938c7c537c84d617d6b36a0a786",
        "stats": "5bd503b413681d527eba8253b8957719090da02664d5738cf80a8489068bebbb",
    },
    "full-array": {
        "sample": "c957363e15b2a7a2f8fbeb2a601a4fa69a75b4d5314ec85ff99a4607f2ba0980",
        "log": "78939131dfa2495b60ebb8aa890776aa43dc3d56a5a15b84bd2deb8dbbb6c2c7",
        "checkpoint": "38d8bca3729a41fed9e9e50353a988acfc5bdb55526577ac453277bf16d9343c",
        "stats": "be3053e07f01aefc0ee72d5373fb6982489ae551dcc7b1ba4cd340d5fa1a1748",
    },
    "candidate-array-unsorted": {
        "sample": "2a59cbb9cbbcd684e09949175147ea4eb04992311deeed7f6cc61e6c1228f042",
        "log": "f9e3050da1ee64e550f5bbff843cd499e6bc6d1fdfa3d27c36cc1e13422d2d5e",
        "checkpoint": "5857443bce0c1cf977073445a71de89675de298bc9bcc7dc485c173c746b598b",
        "stats": "14f702ecb8689cc48b200097fee2018c6be943432a2843ed29d88dd689f2e598",
    },
}

SAMPLE_SIZE = 300
INITIAL_DATASET = 1200
PERIOD = 397
BATCH = 150


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _device_bytes(device: SimulatedBlockDevice) -> bytes:
    blocks = device.snapshot_blocks()
    return b"".join(
        index.to_bytes(8, "little") + blocks[index] for index in sorted(blocks)
    )


def _digests(name: str) -> dict[str, str]:
    strategy, make_algorithm, seed = RUNS[name]
    rng = RandomSource(seed=seed)
    cost = CostModel()
    codec = IntRecordCodec()
    sample_device = SimulatedBlockDevice(cost, "sample")
    log_device = SimulatedBlockDevice(cost, "log")
    sample = SampleFile(sample_device, codec, SAMPLE_SIZE)
    initial, seen = build_reservoir(range(INITIAL_DATASET), SAMPLE_SIZE, rng)
    sample.initialize(initial)
    maintainer = SampleMaintainer(
        sample,
        rng,
        strategy=strategy,
        initial_dataset_size=seen,
        log=LogFile(log_device, codec),
        algorithm=make_algorithm() if make_algorithm is not None else None,
        policy=PeriodicPolicy(PERIOD),
        cost_model=cost,
    )
    value = INITIAL_DATASET
    for _ in range(3):
        for _ in range(BATCH // 4):
            maintainer.insert(value)
            value += 1
        for _ in range(9):
            maintainer.insert_many(range(value, value + BATCH))
            value += BATCH
    maintainer.refresh()
    maintainer.insert_many(range(value, value + 3 * BATCH + 7))
    checkpoint = maintainer.checkpoint_state()
    stats = maintainer.stats
    return {
        "sample": _sha256(_device_bytes(sample_device)),
        "log": _sha256(_device_bytes(log_device)),
        "checkpoint": _sha256(checkpoint.to_bytes()),
        "stats": _sha256(
            repr(
                (
                    stats.online,
                    stats.offline,
                    stats.inserts,
                    stats.refreshes,
                    stats.candidates_logged,
                    stats.displaced_total,
                )
            ).encode()
        ),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_strategy_runs_match_golden_digests(name):
    assert _digests(name) == GOLDEN[name]
