"""Pinned campaign outputs, and replay of every archive entry.

Eight budget-24 campaigns on 300 m roads cover every template, every
variant and both placement policies, and each archives at least one
collision. The pins are the SHA-256 of `ledger.jsonl` and of the archive
files exactly as `conflictfuzz run` writes them, so a change meant to leave
campaigns alone is checked here against the outputs it must reproduce.
Every template has a random-placement campaign, whose archived genomes
carry starts drawn from `rng.uniform`; every entry must replay.
"""

import hashlib
import json
import os

import pytest
import yaml

from conflictfuzz import cli
from conflictfuzz import genome as gn

CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                      "example.yaml")

PIN_VERSIONS = "Python 3.11.7 with numpy 2.4.6"

# (template, variant, placement_policy, rng_seed) ->
#     (ledger.jsonl SHA-256, archive SHA-256)
PINS = {
    ("straight3", "full", "fixed", 3): (
        "12cf752f14e8651054c273af56046bd7ba74892338597848fec7d60d8a2e40ad",
        "5fffe7c419c50b97f37f6794ce0822fd032805dbfd78efa6dae1803a0fb7a13f"),
    ("straight3", "collision_only", "random", 1): (
        "d442b56285bd5c966ab8046df1a491870e2526fe17cd06de9bf3d2469a2e0217",
        "ac95d02b221b04be8da4388dabb1701f299c544782115629de6f5ef9670b7345"),
    ("twoway2", "full", "random", 2): (
        "9c7165e8aff7d314de3806d054071e594f7c80fcfc1995e1bb2da847afd2fe01",
        "7b0a8b71e7fdbafe402df047916b42ebfdb5ff63d22b74d12ce13f4f1e24debe"),
    ("twoway2", "collision_only_random", "random", 17): (
        "a9d9c94a1b41d52455b28ea2dcf5b02b177e4570364a37fc44a2d6f15bca9e51",
        "896cae90d077114294ad7b87cad8ddf2e5d578bf11bc7c4e2dbe98cb41609164"),
    ("merge", "full", "fixed", 1): (
        "e9adc1edf41e9b40df9e6821627b1a2da3527897a44381eeb11efca53917c0db",
        "321fa05ac758dbcef8bb609619aa2e53a4fa63878cd1f03c5321b2b82ab6ede9"),
    ("merge", "collision_only_random", "random", 5): (
        "fa9ee72078b6b49f961e2442b628453fb9478bd277d4fb63ffdf104f661bacb9",
        "f29a5eceb27063ee5ec2499ceae541b8aefbbe14f14603733237e260c7b8fb48"),
    ("cross", "collision_only", "fixed", 5): (
        "95026066dd369e0ab2dddf39500a6ed511bec60a69dca0c71f7efddb25bc5d04",
        "19912dcb2873495683a81f8111e5fb8e33ab64dae81381e408e8ecb2b30818cb"),
    ("cross", "full", "random", 2): (
        "41057dd1f34706efba3901ae0ecdbce2a1f36668dffaa635a4fcc5e574e25d0c",
        "2958a36a521371735412ad26b05fc8b1c7c18e77467e4f3c42fe298b04daec5b"),
}


def archive_digest(archive_dir) -> str:
    """SHA-256 over the sorted archive files' names and bytes."""
    h = hashlib.sha256()
    for path in sorted(archive_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def run_pinned(tmp_dir, template, variant, placement, seed):
    with open(CONFIG) as fh:
        doc = yaml.safe_load(fh)
    doc.update(template=template, variant=variant, placement_policy=placement,
               rng_seed=seed, length=300, budget_steps=24)
    config = tmp_dir / "config.yaml"
    config.write_text(yaml.safe_dump(doc))
    out = tmp_dir / "out"
    assert cli.main(["run", "--config", str(config),
                     "--out", str(out)]) == cli.EXIT_OK
    return out


@pytest.fixture(scope="module", params=sorted(PINS),
                ids=lambda p: "-".join(map(str, p)))
def pinned_run(request, tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("pin")
    return request.param, run_pinned(tmp_dir, *request.param)


def test_pinned_outputs(pinned_run):
    spec, out = pinned_run
    want_ledger, want_archive = PINS[spec]
    got_ledger = hashlib.sha256(
        (out / "ledger.jsonl").read_bytes()).hexdigest()
    got_archive = archive_digest(out / "archive")
    note = (f"the pins were computed with {PIN_VERSIONS}; on other versions "
            f"a mismatch can be a float change of the platform")
    assert got_ledger == want_ledger, f"{spec}: ledger changed ({note})"
    assert got_archive == want_archive, f"{spec}: archive changed ({note})"


def test_every_archive_entry_replays(pinned_run):
    spec, out = pinned_run
    entries = sorted((out / "archive").glob("step_*.json"))
    assert entries, f"{spec} archived no collision"
    for entry in entries:
        assert cli.main(["replay", "--entry", str(entry)]) == cli.EXIT_OK, (
            f"{spec}: {entry.name} does not replay")


def test_repeated_genomes_write_identical_traces(pinned_run):
    _spec, out = pinned_run
    first = {}
    for entry in sorted((out / "archive").glob("step_*.json")):
        with open(entry) as fh:
            genome = gn.genome_from_json(json.dumps(json.load(fh)["genome"]))
        trace = entry.with_name(entry.stem + ".trace.jsonl").read_bytes()
        assert first.setdefault(gn.genome_key(genome), trace) == trace
