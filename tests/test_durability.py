"""Crash-safety of the durability layer, asserted the honest way.

The kill matrix SIGKILLs a *subprocess* replay at every registered
failpoint on the journaled path (nothing is flushed, no ``atexit`` runs
— a real ``kill -9``), resumes in-process, and asserts the JSONL store
is byte-identical to an uninterrupted run's.  Corruption tests damage
journal bytes directly: a mid-file bit flip must reject loudly
(:class:`JournalCorruptError`), while the same damage at the tail is a
torn write and recovers cleanly.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from collections.abc import MutableMapping
from contextlib import nullcontext
from pathlib import Path

import pytest

import repro
from repro.devtools import failpoints
from repro.devtools.failpoints import FailpointError
from repro.durability import Journal, replay_journaled, scan_journal
from repro.errors import JournalCorruptError, JournalError
from repro.run.store import JsonlStore

SRC_ROOT = Path(repro.__file__).resolve().parents[1]

TRACE = "synth:steady:3000"
M = 64
WINDOW = 500
INTERVAL = 800  # 4 slices, 3 snapshots over the 3000-job trace

_CHILD = f"""
import sys
from repro.durability import replay_journaled
replay_journaled(
    "{TRACE}", sys.argv[1], policy="easy", m={M}, store=sys.argv[2],
    snapshot_interval={INTERVAL}, window={WINDOW},
)
"""


@pytest.fixture(autouse=True)
def _reset_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


def _journaled(journal_dir, store, **kwargs):
    return replay_journaled(
        TRACE, journal_dir, policy="easy", m=M, store=store,
        snapshot_interval=INTERVAL, window=WINDOW, **kwargs,
    )


@pytest.fixture(scope="module")
def reference_store_bytes(tmp_path_factory) -> bytes:
    """The uninterrupted journaled run's JSONL store, byte for byte."""
    base = tmp_path_factory.mktemp("reference")
    store = base / "rows.jsonl"
    replay_journaled(
        TRACE, str(base / "journal"), policy="easy", m=M, store=str(store),
        snapshot_interval=INTERVAL, window=WINDOW,
    )
    return store.read_bytes()


def _spawn_killed_run(journal_dir, store, spec: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    env[failpoints.ENV_VAR] = spec
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(journal_dir), str(store)],
        env=env, capture_output=True, text=True,
    )
    return proc.returncode


# ---------------------------------------------------------------------------
# kill-anywhere byte identity
# ---------------------------------------------------------------------------

KILL_SPECS = (
    "replay.slice.start:after=1",
    "replay.slice.commit:after=1",
    "journal.record.append:after=4",
    "journal.record.torn",
    "journal.snapshot.write:after=1",
    "journal.snapshot.rename:after=1",
    "journal.snapshot.marker:after=1",
    "journal.commit",
    "store.append:after=3",
)


@pytest.mark.parametrize("spec", KILL_SPECS, ids=lambda s: s.split(":")[0])
def test_kill_anywhere_resume_is_byte_identical(
    tmp_path, spec, reference_store_bytes
):
    journal_dir = tmp_path / "journal"
    store = tmp_path / "rows.jsonl"
    rc = _spawn_killed_run(journal_dir, store, spec)
    assert rc == -signal.SIGKILL, f"failpoint {spec!r} never fired (rc={rc})"
    with pytest.warns(UserWarning) if "torn" in spec else nullcontext():
        result = _journaled(str(journal_dir), str(store), resume=True)
    assert store.read_bytes() == reference_store_bytes
    assert result.totals["n_jobs"] == 3000


def test_double_kill_then_resume(tmp_path, reference_store_bytes):
    """Two kills at different sites, then a clean resume, same bytes."""
    journal_dir = tmp_path / "journal"
    store = tmp_path / "rows.jsonl"
    assert _spawn_killed_run(
        journal_dir, store, "journal.snapshot.marker:after=1"
    ) == -signal.SIGKILL
    # the resume itself is killed right before the final commit record
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    env[failpoints.ENV_VAR] = "journal.commit"
    child = _CHILD.replace("store=sys.argv[2],", "store=sys.argv[2], resume=True,")
    proc = subprocess.run(
        [sys.executable, "-c", child, str(journal_dir), str(store)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == -signal.SIGKILL
    _journaled(str(journal_dir), str(store), resume=True)
    assert store.read_bytes() == reference_store_bytes


# ---------------------------------------------------------------------------
# journal lifecycle and corruption
# ---------------------------------------------------------------------------


def _complete_journal(tmp_path):
    journal_dir = tmp_path / "journal"
    store = tmp_path / "rows.jsonl"
    _journaled(str(journal_dir), str(store))
    return journal_dir, store


def test_committed_resume_is_a_pure_read(tmp_path, reference_store_bytes):
    journal_dir, store = _complete_journal(tmp_path)
    before = sorted(
        (p.name, p.stat().st_size) for p in journal_dir.iterdir()
    )
    result = _journaled(str(journal_dir), str(store), resume=True)
    after = sorted((p.name, p.stat().st_size) for p in journal_dir.iterdir())
    assert before == after
    assert store.read_bytes() == reference_store_bytes
    assert result.totals["n_jobs"] == 3000


def test_fresh_run_refuses_existing_journal(tmp_path):
    journal_dir, store = _complete_journal(tmp_path)
    with pytest.raises(JournalError, match="already contains a journal"):
        _journaled(str(journal_dir), str(store))


def test_resume_rejects_mismatched_config(tmp_path):
    journal_dir, store = _complete_journal(tmp_path)
    with pytest.raises(JournalError, match="does not match"):
        replay_journaled(
            TRACE, str(journal_dir), policy="fcfs", m=M, store=str(store),
            snapshot_interval=INTERVAL, window=WINDOW, resume=True,
        )


def test_resume_rejects_other_checkpoint_version(tmp_path, monkeypatch):
    """A journal whose header predates the checkpoint-version key (its
    snapshots carry another loop's counters) fails the header check
    instead of resuming with a wrong event count."""
    import repro.durability.journaled as journaled

    with monkeypatch.context() as patched:
        patched.setattr(journaled, "CHECKPOINT_VERSION", None)
        journal_dir, store = _complete_journal(tmp_path)
    with pytest.raises(JournalError, match="checkpoint"):
        _journaled(str(journal_dir), str(store), resume=True)


def test_cli_resume_refuses_checkpoint_version_2(tmp_path, monkeypatch,
                                                  capsys):
    """``repro replay --journal ... --resume`` refuses a journal whose
    header records version-2 checkpoints (they carry fields this build
    no longer reads) with an ``error:`` line, not a traceback."""
    import repro.durability.journaled as journaled
    from repro.cli import main
    from repro.simulation.replay import CHECKPOINT_VERSION

    args = ["replay", "synth:steady:400", "-p", "easy", "--window", "50",
            "--journal", str(tmp_path / "j"), "--snapshot-interval", "100",
            "-o", str(tmp_path / "rows.jsonl")]
    with monkeypatch.context() as patched:
        patched.setattr(journaled, "CHECKPOINT_VERSION", 2)
        assert main(args) == 0
    capsys.readouterr()
    assert main([*args, "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: journal header does not match")
    assert f"'checkpoint': (2, {CHECKPOINT_VERSION})" in err


def test_resume_of_nothing_is_loud(tmp_path):
    with pytest.raises(JournalError, match="no journal"):
        _journaled(str(tmp_path / "absent"), None, resume=True)


def test_mid_file_bit_flip_rejects_loudly(tmp_path):
    journal_dir, _ = _complete_journal(tmp_path)
    seg0 = journal_dir / "seg-00000000.wal"
    data = bytearray(seg0.read_bytes())
    data[10] ^= 0x40  # inside the header record's payload
    seg0.write_bytes(bytes(data))
    with pytest.raises(JournalCorruptError):
        scan_journal(str(journal_dir))
    with pytest.raises(JournalCorruptError):
        Journal.recover(str(journal_dir))


def test_truncated_tail_recovers_cleanly(tmp_path, reference_store_bytes):
    journal_dir, store = _complete_journal(tmp_path)
    segments = sorted(journal_dir.glob("seg-*.wal"))
    tail = segments[-1]
    tail_size = tail.stat().st_size
    os.truncate(tail, tail_size - 3)  # tear the commit record
    scan = scan_journal(str(journal_dir))
    assert scan.torn is not None
    with pytest.warns(UserWarning, match="torn"):
        result = _journaled(str(journal_dir), str(store), resume=True)
    assert store.read_bytes() == reference_store_bytes
    assert result.totals["n_jobs"] == 3000


def test_create_then_scan_roundtrip(tmp_path):
    journal_dir = tmp_path / "j"
    with Journal.create(str(journal_dir), {"demo": 1}) as journal:
        journal.append_row({"key": "w0", "v": 1})
        journal.snapshot(b"state-1", {"arrived": 10})
        journal.append_row({"key": "w1", "v": 2})
        journal.commit({"rows": 2})
    journal, recovery = Journal.recover(str(journal_dir))
    journal.close()
    assert recovery.committed
    assert _rows(recovery.before + recovery.after) == [
        {"key": "w0", "v": 1}, {"key": "w1", "v": 2}
    ]
    assert recovery.config == {"demo": 1}


def test_uncommitted_rows_are_dropped_on_resume(tmp_path):
    journal_dir = tmp_path / "j"
    with Journal.create(str(journal_dir), {"demo": 1}) as journal:
        journal.append_row({"key": "w0"})
        journal.snapshot(b"state-1", {"arrived": 10})
        journal.append_row({"key": "w1"})  # uncommitted: after the marker
    journal, recovery = Journal.recover(str(journal_dir))
    assert not recovery.committed
    assert _rows(recovery.before) == [{"key": "w0"}]
    assert _rows(recovery.after) == [{"key": "w1"}]  # the one to discard
    assert recovery.snapshot == b"state-1"
    journal.truncate(recovery.boundary)
    journal.close()
    journal, recovery = Journal.recover(str(journal_dir))
    journal.close()
    assert _rows(recovery.before) == [{"key": "w0"}]
    assert recovery.after == []


# ---------------------------------------------------------------------------
# the recovery-failure matrix: both callers of Journal.recover
# ---------------------------------------------------------------------------


def _rows(records):
    return [r["row"] for r in records if r["t"] == "row"]


def _replay_journal(base):
    """A journaled replay killed before its commit record: three
    snapshots, the final chunk's rows after the last marker."""
    journal_dir = base / "journal"
    failpoints.arm("journal.commit", "error")
    with pytest.raises(FailpointError):
        _journaled(str(journal_dir), None)
    failpoints.reset()
    return journal_dir


def _resume_replay(base, reference):
    store = base / "rows.jsonl"
    _journaled(str(base / "journal"), str(store), resume=True)
    assert store.read_bytes() == reference["replay"]


def _serve_journal(base):
    """A serve session closed without a final snapshot: four
    snapshots plus ops after the last marker."""
    from repro.serve import SchedulerService
    from repro.serve.api import make_advance, make_submit

    service = SchedulerService.create(
        str(base / "journal"), m=8, window=2, snapshot_interval=3
    )
    for i in range(7):
        assert service.handle(make_submit(f"j{i}", 3 + i, 1 + i % 8, i))["ok"]
        assert service.handle(make_advance(i))["ok"]
    service.close()
    return base / "journal"


def _resume_serve(base, reference):
    from repro.serve import SchedulerService

    service, _ = SchedulerService.resume(str(base / "journal"))
    state = json.dumps(service.core.describe_state(), sort_keys=True)
    service.close()
    assert state == reference["serve"]


@pytest.fixture(scope="module")
def reference_outcomes(tmp_path_factory, reference_store_bytes):
    """What an undamaged resume of each caller's journal yields."""
    from repro.serve import SchedulerService

    base = tmp_path_factory.mktemp("serve-reference")
    _serve_journal(base)
    service, _ = SchedulerService.resume(str(base / "journal"))
    state = json.dumps(service.core.describe_state(), sort_keys=True)
    service.close()
    return {"replay": reference_store_bytes, "serve": state}


CALLERS = {
    "replay": (_replay_journal, _resume_replay),
    "serve": (_serve_journal, _resume_serve),
}


def _last_snapshot(journal_dir) -> Path:
    return sorted(journal_dir.glob("snap-*.ckpt"))[-1]


def _drop_last_snapshot(journal_dir):
    _last_snapshot(journal_dir).unlink()


def _flip_last_snapshot(journal_dir):
    path = _last_snapshot(journal_dir)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def _truncate_last_snapshot(journal_dir):
    path = _last_snapshot(journal_dir)
    os.truncate(path, path.stat().st_size - 1)


def _markerless_tail(journal_dir):
    from repro.durability.journal import _encode, _frame

    index = len(list(journal_dir.glob("seg-*.wal")))
    (journal_dir / f"seg-{index:08d}.wal").write_bytes(
        _frame(_encode({"t": "row", "row": {"key": "stray"}}))
    )


def _segment_gap(journal_dir):
    last = sorted(journal_dir.glob("seg-*.wal"))[-1]
    index = int(last.stem.split("-")[1])
    last.rename(journal_dir / f"seg-{index + 1:08d}.wal")


DAMAGE = {
    "snapshot-missing": (_drop_last_snapshot, "snapshot file missing"),
    "snapshot-crc": (_flip_last_snapshot, "size/CRC mismatch"),
    "snapshot-size": (_truncate_last_snapshot, "size/CRC mismatch"),
    "tail-without-marker": (_markerless_tail, "has no snapshot marker"),
    "segment-gap": (_segment_gap, "non-contiguous segments"),
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_recovery_rejects_damage(tmp_path, caller, damage, reference_outcomes):
    """Every damaged journal rejects loudly on both callers' resume,
    and nothing of it is repaired away: the error repeats."""
    build, resume = CALLERS[caller]
    harm, message = DAMAGE[damage]
    journal_dir = build(tmp_path)
    assert len(list(journal_dir.glob("snap-*.ckpt"))) >= 3
    harm(journal_dir)
    for _ in range(2):
        with pytest.raises(JournalCorruptError, match=message):
            resume(tmp_path, reference_outcomes)


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_recovery_sweeps_stranded_tmp_files(tmp_path, caller, reference_outcomes):
    """Files a crash strands inside an atomic publish (``*.tmp.<pid>``)
    are swept, and the resume reaches the undamaged outcome."""
    build, resume = CALLERS[caller]
    journal_dir = build(tmp_path)
    stranded = [
        journal_dir / (_last_snapshot(journal_dir).name + ".tmp.4242"),
        journal_dir / "seg-00000099.wal.tmp.4242",
    ]
    for path in stranded:
        path.write_bytes(b"half-published")
    resume(tmp_path, reference_outcomes)
    assert not any(path.exists() for path in stranded)


# ---------------------------------------------------------------------------
# failpoint harness
# ---------------------------------------------------------------------------


def test_unknown_failpoint_is_loud():
    with pytest.raises(FailpointError, match="unknown failpoint"):
        failpoints.parse_spec("no.such.site:mode=error")
    with pytest.raises(FailpointError, match="unknown failpoint"):
        failpoints.arm("no.such.site")


def test_malformed_spec_is_loud():
    with pytest.raises(FailpointError, match="malformed option"):
        failpoints.parse_spec("journal.commit:after")
    with pytest.raises(FailpointError, match="unknown option"):
        failpoints.parse_spec("journal.commit:frequency=2")
    with pytest.raises(FailpointError, match="mode must be"):
        failpoints.parse_spec("journal.commit:mode=explode")


def test_after_and_count_gate_firing():
    failpoints.arm("journal.commit", "error", after=2, count=1)
    failpoints.fire("journal.commit")  # hit 1: skipped
    failpoints.fire("journal.commit")  # hit 2: skipped
    with pytest.raises(FailpointError):
        failpoints.fire("journal.commit")  # hit 3: fires
    failpoints.fire("journal.commit")  # count exhausted


def test_once_sentinel_fires_exactly_once(tmp_path):
    sentinel = tmp_path / "fired"
    failpoints.arm("journal.commit", "error", once=str(sentinel))
    with pytest.raises(FailpointError):
        failpoints.fire("journal.commit")
    assert sentinel.exists()
    failpoints.fire("journal.commit")  # sentinel already claimed


def test_env_spec_arms_and_reset_disarms(monkeypatch):
    monkeypatch.setenv(failpoints.ENV_VAR, "journal.commit:mode=error")
    assert failpoints.armed_names() == ("journal.commit",)
    with pytest.raises(FailpointError):
        failpoints.fire("journal.commit")
    failpoints.reset()
    monkeypatch.delenv(failpoints.ENV_VAR)
    failpoints.fire("journal.commit")  # disarmed: no-op


class _CountingEnviron(MutableMapping):
    """A pass-through view of the environment that counts its reads."""

    def __init__(self, real):
        self.real = real
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return self.real[key]

    def __setitem__(self, key, value):
        self.real[key] = value

    def __delitem__(self, key):
        del self.real[key]

    def __iter__(self):
        return iter(self.real)

    def __len__(self):
        return len(self.real)


def test_disarmed_fire_reads_the_environment_once(monkeypatch):
    """Only the first fire reads the environment: a disarmed fire on a
    hot path is one flag check, whichever site it names."""
    monkeypatch.delenv(failpoints.ENV_VAR, raising=False)
    environ = _CountingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", environ)
    failpoints.fire("journal.commit")
    assert environ.reads == 1
    for name in ("journal.commit", "store.append", "uncertainty.requeue",
                 "uncertainty.overrun_kill", "serve.op.ack"):
        for _ in range(10):
            failpoints.fire(name)
    assert environ.reads == 1


def test_reset_and_armed_names_pick_up_setenv(monkeypatch):
    monkeypatch.delenv(failpoints.ENV_VAR, raising=False)
    failpoints.fire("journal.commit")  # reads the environment: disarmed
    monkeypatch.setenv(failpoints.ENV_VAR, "journal.commit:mode=error")
    failpoints.fire("journal.commit")  # not re-read: still disarmed
    failpoints.reset()
    with pytest.raises(FailpointError):
        failpoints.fire("journal.commit")
    monkeypatch.setenv(failpoints.ENV_VAR, "store.append:mode=error")
    assert failpoints.armed_names() == ("store.append",)
    failpoints.fire("journal.commit")  # no longer armed
    with pytest.raises(FailpointError):
        failpoints.fire("store.append")


def test_before_callback_runs_only_when_firing():
    staged = []
    failpoints.fire("journal.record.torn", before=lambda: staged.append(1))
    assert staged == []  # not armed: the partial write must not happen
    failpoints.arm("journal.record.torn", "error")
    with pytest.raises(FailpointError):
        failpoints.fire("journal.record.torn", before=lambda: staged.append(1))
    assert staged == [1]


# ---------------------------------------------------------------------------
# JsonlStore crash-safe resume
# ---------------------------------------------------------------------------


def test_store_restores_missing_trailing_newline(tmp_path):
    store = JsonlStore(str(tmp_path / "rows.jsonl"))
    store.append({"key": "aa", "v": 1})
    intact = Path(store.path).read_bytes()
    os.truncate(store.path, len(intact) - 1)  # the newline alone is lost
    with pytest.warns(UserWarning, match="newline"):
        rows = store.load()
    assert rows == [{"key": "aa", "v": 1}]
    assert Path(store.path).read_bytes() == intact


def test_store_append_failpoint_is_wired(tmp_path):
    store = JsonlStore(str(tmp_path / "rows.jsonl"))
    failpoints.arm("store.append", "error")
    with pytest.raises(FailpointError):
        store.append({"key": "aa"})
    failpoints.reset()
    store.append({"key": "aa"})
    assert store.keys() == {"aa"}
