"""The profile protocol: the kernel and its reference, one behaviour.

The library builds one profile, the kernel :class:`ArrayProfile`
(public name ``ResourceProfile``).  :class:`ListProfile` is the
deliberately simple reference it is held to, whatever the type of the
times:

* *property round-trips* — reserve-then-add restores the profile, queries
  agree with brute-force references, Fraction/float breakpoints and
  zero-capacity tails survive, all parametrized over both classes;
* *kernel-vs-reference equivalence* — identical op sequences on int,
  Fraction, float and mixed-type times leave both representing the same
  function with the same time types, query for query, and bad arguments
  (NaN, infinities, negatives) fail alike and change nothing;
* *scheduler differential* — LSRC, FCFS, conservative backfilling and
  shelf produce **identical schedules** on the kernel and, under the
  :func:`conftest.on_reference_profile` fixture, on the reference, on
  50+ randomized instances with mixed int/Fraction times.
"""

import ast
import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    ConservativeBackfillScheduler,
    FCFSScheduler,
    FirstFitShelfScheduler,
    ListScheduler,
)
from repro.core import ReservationInstance
from repro.core.profiles import (
    ArrayProfile,
    ListProfile,
    ProfileBackend,
    ResourceProfile,
)
from repro.errors import CapacityError, InvalidInstanceError, SchedulingError
from repro.simulation.scheduler_core import SchedulerCore

from conftest import NaiveCapacity, random_resa

BACKENDS = [ListProfile, ArrayProfile]


@pytest.fixture(params=BACKENDS, ids=lambda cls: cls.__name__)
def backend(request):
    """Each test in this module runs once per profile class."""
    return request.param


# ---------------------------------------------------------------------------
# the one profile the library builds, and the test seam onto the reference
# ---------------------------------------------------------------------------

class TestRegistry:
    """Profile selection as it stands: one profile in the library, a
    two-name seam in the engine, and a test fixture onto the
    reference."""

    def test_library_builds_the_kernel(self):
        inst = ReservationInstance.from_specs(4, [(2, 2)], [(1, 2, 2)])
        assert ResourceProfile is ArrayProfile
        assert type(inst.availability_profile()) is ArrayProfile
        schedule = ListScheduler().schedule(inst)
        assert type(schedule.usage_profile()) is ArrayProfile
        assert type(SchedulerCore(4).profile) is ArrayProfile
        core = SchedulerCore(4, profile_backend="list")
        assert type(core.profile) is ListProfile

    def test_resolve_unknown_rejected(self):
        # the engine seam takes its two names only
        for value in ("array", None, "btree", "tree", ArrayProfile, 42):
            with pytest.raises(SchedulingError, match="'auto'.*'list'"):
                SchedulerCore(4, profile_backend=value)

    def test_availability_profile_accepts_backend(self, backend,
                                                  reference_profile):
        """The test seam houses an instance's profile on either class —
        the scheduler differential below compares something only if the
        fixture really swaps the reference in, and only inside its
        block."""
        inst = ReservationInstance.from_specs(4, [(2, 2)], [(1, 2, 2)])
        kernel = inst.availability_profile()
        if backend is ListProfile:
            with reference_profile():
                profile = inst.availability_profile()
                profile.reserve(0, 1, 1)  # a fresh copy, as on the kernel
                assert type(inst.availability_profile()) is ListProfile
            assert inst.availability_profile() == kernel != profile
            profile.add(0, 1, 1)
        else:
            profile = kernel
        assert isinstance(profile, backend)
        assert profile.capacity_at(1) == 2
        assert type(inst.availability_profile()) is ArrayProfile


#: Where ``src/repro`` may name the reference profile and the engine's
#: profile seam (paths relative to ``src/repro``).
_LIST_PROFILE_HOMES = {
    "core/profiles/list_backend.py",  # the reference itself
    "core/profiles/__init__.py",      # its export
    "simulation/scheduler_core.py",   # the engine's reference seam
}
_PROFILE_BACKEND_HOMES = {
    "simulation/replay.py",
    "simulation/scheduler_core.py",
    "durability/journaled.py",
}


def _identifiers(tree):
    """Every name the code binds or reads: names, attributes, function
    parameters, keyword arguments, imports and definitions (docstrings
    and other strings are not code)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.name
            if node.asname:
                yield node.asname
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node.name


def test_src_builds_one_profile():
    """Only the reference's own module, its export and the engine's
    reference seam name ``ListProfile``; only the replay engine, the
    scheduler core and the journaled replay that forwards engine
    arguments name ``profile_backend``.  A scheduler, bound or
    simulation that grows a profile choice again fails here."""
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    found = {"ListProfile": set(), "profile_backend": set()}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for name in _identifiers(ast.parse(path.read_text(), rel)):
            for key in found:
                if key in name:
                    found[key].add(rel)
    assert found["ListProfile"] <= _LIST_PROFILE_HOMES, found["ListProfile"]
    assert found["profile_backend"] <= _PROFILE_BACKEND_HOMES, (
        found["profile_backend"]
    )
    assert "core/profiles/list_backend.py" in found["ListProfile"]


# ---------------------------------------------------------------------------
# behavioural parity on hand-picked cases
# ---------------------------------------------------------------------------

class TestBackendBasics:
    def test_constant(self, backend):
        p = backend.constant(4)
        assert p.capacity_at(0) == 4
        assert p.capacity_at(10**9) == 4
        assert p.breakpoints == (0,)

    def test_validation(self, backend):
        with pytest.raises(InvalidInstanceError):
            backend([1, 2], [1, 2])
        with pytest.raises(InvalidInstanceError):
            backend([0, 2, 2], [1, 2, 3])
        with pytest.raises(InvalidInstanceError):
            backend([0], [-1])
        with pytest.raises(InvalidInstanceError):
            backend([0], [1.5])

    def test_try_reserve(self, backend):
        p = backend.constant(4)
        assert p.try_reserve(2, 3, 3) is True
        assert p.capacity_at(3) == 1
        snapshot = p.copy()
        # a failing probe must leave the profile untouched
        assert p.try_reserve(0, 10, 2) is False
        assert p == snapshot
        assert p.as_lists() == snapshot.as_lists()
        # zero amount fits without mutating
        assert p.try_reserve(0, 10, 0) is True
        assert p == snapshot

    def test_reserve_fitting_matches_reserve(self, backend):
        a = backend.from_segments([(0, 5), (4, 2), (9, 6)])
        b = a.copy()
        a.reserve(1, 6, 2)
        b.reserve_fitting(1, 6, 2)
        assert a == b
        assert a.as_lists() == b.as_lists()

    def test_merges_equal_segments(self, backend):
        assert backend([0, 1, 2], [3, 3, 4]).breakpoints == (0, 2)

    def test_boundary_coalescing_after_mutation(self, backend):
        p = backend.from_segments([(0, 4), (2, 2)])
        p.add(2, 3, 2)  # [2, 5) back to 4 => equal to the left neighbour
        assert p.breakpoints == (0, 5)
        p2 = backend.constant(4)
        p2.reserve(0, 2, 2)  # [0:2][2:4]
        p2.reserve(2, 2, 2)  # now equal across the boundary at 2
        assert p2.breakpoints == (0, 4)

    def test_overflow_rejected_and_state_unchanged(self, backend):
        p = backend.constant(2)
        p.reserve(0, 5, 1)
        snapshot = p.copy()
        with pytest.raises(CapacityError):
            p.reserve(3, 4, 2)
        assert p == snapshot
        assert p.breakpoints == snapshot.breakpoints

    def test_zero_capacity_tail(self, backend):
        p = backend.from_segments([(0, 3), (5, 0)])
        assert p.final_capacity() == 0
        assert p.earliest_fit(1, 1, after=6) is None
        assert p.earliest_fit(1, 2, after=4) is None  # cannot straddle
        assert p.earliest_fit(0, 7, after=2) == 2     # zero width always fits
        assert p.first_time_area_reaches(100) is None
        assert p.area(0, 100) == 15

    def test_fraction_times(self, backend):
        p = backend.constant(3)
        p.reserve(Fraction(1, 3), Fraction(1, 6), 2)
        assert p.capacity_at(Fraction(1, 3)) == 1
        assert p.capacity_at(Fraction(1, 2)) == 3
        assert p.earliest_fit(3, Fraction(1, 2)) == Fraction(1, 2)
        assert p.area(0, 1) == 3 - 2 * Fraction(1, 6)

    def test_float_times(self, backend):
        p = backend.constant(2)
        p.reserve(0.5, 1.25, 1)
        assert p.capacity_at(0.5) == 1
        assert p.capacity_at(1.75) == 2
        assert p.breakpoints == (0, 0.5, 1.75)
        assert p.min_capacity(0.0, 3.0) == 1

    def test_cross_backend_equality_and_hash(self):
        a = ListProfile.from_segments([(0, 2), (1, 3)])
        c = ArrayProfile.from_segments([(0, 2), (1, 3)])
        assert a == c
        assert hash(a) == hash(c)
        c.add(5, 1, 1)
        assert a != c

    def test_protocol_subclass(self, backend):
        assert issubclass(backend, ProfileBackend)

    def test_copy_is_independent(self, backend):
        p = backend.constant(4)
        q = p.copy()
        q.reserve(0, 1, 2)
        assert p.capacity_at(0) == 4
        assert q.capacity_at(0) == 2


# ---------------------------------------------------------------------------
# batch primitive
# ---------------------------------------------------------------------------

class TestReserveMany:
    def test_matches_sequential(self, backend):
        blocks = [(0, 4, 2), (2, 3, 1), (Fraction(7, 2), 2, 3)]
        batch = backend.constant(8)
        batch.reserve_many(blocks)
        seq = backend.constant(8)
        for s, d, a in blocks:
            seq.reserve(s, d, a)
        assert batch == seq

    def test_atomic_on_failure(self, backend):
        p = backend.constant(2)
        with pytest.raises(CapacityError):
            p.reserve_many([(0, 2, 1), (1, 2, 2)])
        assert p == backend.constant(2)

    def test_empty_and_zero_blocks(self, backend):
        p = backend.constant(3)
        p.reserve_many([])
        p.reserve_many([(0, 5, 0)])
        assert p == backend.constant(3)

    def test_validation(self, backend):
        with pytest.raises(InvalidInstanceError):
            backend.constant(3).reserve_many([(0, 0, 1)])
        with pytest.raises(InvalidInstanceError):
            backend.constant(3).reserve_many([(-1, 2, 1)])

    def test_atomic_on_invalid_later_block(self, backend):
        """A later block failing *argument validation* must also leave the
        profile untouched, not just a capacity failure."""
        p = backend.constant(3)
        with pytest.raises(InvalidInstanceError):
            p.reserve_many([(0, 2, 1), (1, 0, 1)])  # second: zero duration
        assert p == backend.constant(3)

    def test_random_batches_agree_across_backends(self):
        """ArrayProfile.reserve_many's single overlay sweep must land on
        exactly the list backend's atomic result, block order included."""
        rng = random.Random(42)
        for _ in range(40):
            times = sorted(rng.sample(range(0, 60), rng.randint(1, 8)))
            if not times or times[0] != 0:
                times.insert(0, 0)
            caps = [rng.randint(2, 10) for _ in times]
            lp, tp = ListProfile(times, caps), ArrayProfile(times, caps)
            blocks = []
            for _ in range(rng.randint(1, 10)):
                start = rng.randint(0, 120)
                blocks.append((start, rng.randint(1, 20), rng.randint(0, 2)))
            try:
                lp.reserve_many(blocks)
            except CapacityError:
                with pytest.raises(CapacityError):
                    tp.reserve_many(blocks)
                assert tp == ArrayProfile(times, caps)  # untouched
                continue
            tp.reserve_many(blocks)
            assert lp == tp
            assert lp.as_lists() == tp.as_lists()  # canonical form too


# ---------------------------------------------------------------------------
# max_capacity_between (the incremental-LSRC skip query)
# ---------------------------------------------------------------------------

class TestMaxCapacityBetween:
    def test_matches_brute_force(self, backend):
        times = [0, 2, 5, 7, 11, 13]
        caps = [3, 6, 1, 8, 2, 4]
        p = backend(times, caps)

        def brute(start, end):
            best = p.capacity_at(start)
            for t in times:
                if start < t < end:
                    best = max(best, p.capacity_at(t))
            return best

        for start in range(0, 15):
            for end in range(start + 1, 16):
                assert p.max_capacity_between(start, end) == brute(start, end)

    def test_suffix_maximum(self, backend):
        p = backend([0, 2, 5, 7], [3, 6, 1, 4])
        assert p.max_capacity_between(0) == 6
        assert p.max_capacity_between(3) == 6  # segment containing 3 counts
        assert p.max_capacity_between(5) == 4
        assert p.max_capacity_between(100) == 4

    def test_fraction_windows(self, backend):
        p = backend([0, Fraction(3, 2), 3], [2, 7, 1])
        assert p.max_capacity_between(0, Fraction(3, 2)) == 2
        assert p.max_capacity_between(1, 2) == 7
        assert p.max_capacity_between(Fraction(3, 2), 3) == 7
        assert p.max_capacity_between(3, 10) == 1

    def test_invalid_windows(self, backend):
        p = backend.constant(3)
        with pytest.raises(InvalidInstanceError):
            p.max_capacity_between(2, 2)
        with pytest.raises(InvalidInstanceError):
            p.max_capacity_between(5, 1)
        with pytest.raises(InvalidInstanceError):
            p.max_capacity_between(-1, 4)

    def test_backends_agree_after_mutation(self):
        rng = random.Random(7)
        for _ in range(30):
            times = sorted(rng.sample(range(0, 50), rng.randint(1, 10)))
            if not times or times[0] != 0:
                times.insert(0, 0)
            caps = [rng.randint(0, 9) for _ in times]
            lp, tp = ListProfile(times, caps), ArrayProfile(times, caps)
            for _ in range(8):
                start = rng.randint(0, 55)
                dur = rng.randint(1, 15)
                amount = rng.randint(1, 3)
                if lp.min_capacity(start, start + dur) >= amount:
                    lp.reserve(start, dur, amount)
                    tp.reserve(start, dur, amount)
                end = None if rng.random() < 0.25 else start + rng.randint(1, 20)
                assert (lp.max_capacity_between(start, end)
                        == tp.max_capacity_between(start, end))


# ---------------------------------------------------------------------------
# windowed-area regression (the deep-window bisection fix)
# ---------------------------------------------------------------------------

class TestWindowedArea:
    @pytest.fixture(params=BACKENDS, ids=lambda cls: cls.__name__)
    def big_profile(self, request):
        """~1k-breakpoint sawtooth profile."""
        times = list(range(1000))
        caps = [5 + (i % 7) for i in range(1000)]
        return request.param(times, caps)

    def test_area_deep_window(self, big_profile):
        # brute-force reference over the window only
        start, end = 950, 973
        want = sum(5 + (t % 7) for t in range(start, end))
        assert big_profile.area(start, end) == want

    def test_area_partial_segments(self, big_profile):
        got = big_profile.area(Fraction(1901, 2), 952)
        want = (5 + (950 % 7)) * Fraction(1, 2) + (5 + (951 % 7))
        assert got == want

    def test_first_time_area_reaches_deep_start(self, big_profile):
        start = 900
        work = 37
        t = big_profile.first_time_area_reaches(work, start=start)
        assert big_profile.area(start, t) >= work
        # minimality: any earlier breakpoint has strictly less area
        eps = Fraction(1, 1000)
        assert big_profile.area(start, t - eps) < work

    def test_area_windows_scale_sublinearly(self, big_profile):
        """The bisected window scan must not walk segments before start."""
        import timeit
        deep = timeit.timeit(
            lambda: big_profile.area(990, 995), number=200
        )
        # sanity only: completes fast and returns the right value; the
        # benchmark quantifies the speedup properly.
        assert big_profile.area(990, 995) == sum(
            5 + (t % 7) for t in range(990, 995)
        )
        assert deep < 5.0


# ---------------------------------------------------------------------------
# property tests (both backends, naive references)
# ---------------------------------------------------------------------------

hold_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20),   # start
        st.integers(min_value=1, max_value=10),   # duration
        st.integers(min_value=1, max_value=3),    # amount
    ),
    max_size=6,
)

time_kinds = st.sampled_from(["int", "fraction", "float"])


def _cast(value: int, kind: str):
    if kind == "fraction":
        return Fraction(value, 2)
    if kind == "float":
        return value / 2.0
    return value


@settings(max_examples=60, deadline=None)
@given(
    cls=st.sampled_from(BACKENDS),
    m=st.integers(min_value=2, max_value=12),
    holds=hold_lists,
    kind=time_kinds,
)
def test_reserve_add_roundtrip(cls, m, holds, kind):
    """reserve-then-add (in reverse) restores the original profile."""
    p = cls.constant(m)
    applied = []
    for start, dur, amount in holds:
        start, dur = _cast(start, kind), _cast(dur, kind)
        if p.min_capacity(start, start + dur) >= amount:
            p.reserve(start, dur, amount)
            applied.append((start, dur, amount))
    for start, dur, amount in reversed(applied):
        p.add(start, dur, amount)
    assert p == cls.constant(m)
    assert p.breakpoints == (0,)


@settings(max_examples=60, deadline=None)
@given(
    cls=st.sampled_from(BACKENDS),
    m=st.integers(min_value=3, max_value=12),
    holds=hold_lists,
)
def test_backend_matches_naive_capacity(cls, m, holds):
    profile = cls.constant(m)
    naive = NaiveCapacity(m)
    for start, dur, amount in holds:
        if profile.min_capacity(start, start + dur) >= amount:
            profile.reserve(start, dur, amount)
            naive.reserve(start, dur, amount)
    for t in range(0, 35):
        assert profile.capacity_at(t) == naive.capacity_at(t), f"t={t}"
    for a in range(0, 30, 3):
        for b in (a + 1, a + 5):
            assert profile.min_capacity(a, b) == naive.min_capacity(a, b)


@settings(max_examples=60, deadline=None)
@given(
    cls=st.sampled_from(BACKENDS),
    m=st.integers(min_value=2, max_value=10),
    holds=hold_lists,
    q=st.integers(min_value=0, max_value=4),
    duration=st.integers(min_value=1, max_value=8),
    after=st.integers(min_value=0, max_value=15),
)
def test_backend_earliest_fit_matches_naive(cls, m, holds, q, duration, after):
    profile = cls.constant(m)
    naive = NaiveCapacity(m)
    for start, dur, amount in holds:
        if profile.min_capacity(start, start + dur) >= amount:
            profile.reserve(start, dur, amount)
            naive.reserve(start, dur, amount)
    assert profile.earliest_fit(q, duration, after=after) == naive.earliest_fit(
        q, duration, after=after
    )


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=12),
    holds=hold_lists,
)
def test_backends_agree_segmentwise(m, holds):
    """Identical (integer-timed) op sequences leave both backends
    representing the same function — segments, aggregates, areas and
    fits included."""
    lp, tp = ListProfile.constant(m), ArrayProfile.constant(m)
    for start, dur, amount in holds:
        if lp.min_capacity(start, start + dur) >= amount:
            lp.reserve(start, dur, amount)
            tp.reserve(start, dur, amount)
    assert list(lp.segments()) == list(tp.segments())
    assert lp.breakpoints == tp.breakpoints
    assert lp.min_capacity_overall() == tp.min_capacity_overall()
    assert lp.max_capacity() == tp.max_capacity()
    assert lp.final_capacity() == tp.final_capacity()
    for a in range(0, 24, 5):
        assert lp.area(a, a + 7) == tp.area(a, a + 7)
        assert lp.first_time_area_reaches(11, start=a) == tp.first_time_area_reaches(11, start=a)
    assert lp.is_nondecreasing() == tp.is_nondecreasing()


# ---------------------------------------------------------------------------
# scheduler differential: identical schedules on the kernel and the reference
# ---------------------------------------------------------------------------

def _fractionalized(inst: ReservationInstance, seed: int) -> ReservationInstance:
    """Scale an instance by a Fraction so times mix int and Fraction."""
    factor = Fraction(random.Random(seed).choice([3, 5, 7]), 2)
    return inst.scaled(factor)


# timebase="exact" pins the schedulers that grew an integer fast path to
# the exact engine: this test compares the *profiles*, which the fast path
# places on the kernel either way (tests/test_timebase.py covers that axis).
DIFFERENTIAL_SCHEDULERS = [
    ("lsrc", lambda: ListScheduler(timebase="exact")),
    ("lsrc-lpt", lambda: ListScheduler("lpt", timebase="exact")),
    ("fcfs", FCFSScheduler),
    ("backfill-cons",
     lambda: ConservativeBackfillScheduler(timebase="exact")),
    ("shelf-ff", FirstFitShelfScheduler),
]


@pytest.mark.parametrize("name,factory", DIFFERENTIAL_SCHEDULERS,
                         ids=[n for n, _ in DIFFERENTIAL_SCHEDULERS])
def test_schedulers_identical_across_backends(name, factory,
                                              reference_profile):
    """>= 50 randomized instances per scheduler, mixed int/Fraction times:
    the schedule (start time of every job, with its type) on the kernel
    must equal the one on the reference profile."""
    checked = 0
    seed = 0
    while checked < 55:
        seed += 1
        inst = random_resa(seed)
        if seed % 2 == 0:
            inst = _fractionalized(inst, seed)
        if name == "shelf-ff" and any(j.release > 0 for j in inst.jobs):
            continue
        with reference_profile():
            a = factory().schedule(inst)
        a.verify()
        c = factory().schedule(inst)
        assert c.starts == a.starts, f"{name} (kernel) diverged on seed {seed}"
        assert [type(t) for t in c.starts.values()] == [
            type(t) for t in a.starts.values()
        ]
        checked += 1


def test_conservative_identical_on_the_bench_trace(reference_profile):
    """The trace of ``benchmarks/bench_profile_backends.py``'s quick
    scheduling scenario, which times conservative backfilling on both
    profiles: every job starts alike."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / (
        "bench_profile_backends.py"
    )
    spec = importlib.util.spec_from_file_location("bench_profile_backends",
                                                  path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    instance = bench.make_trace(800, 80, 256, 7)
    scheduler = ConservativeBackfillScheduler(timebase="exact")
    with reference_profile():
        reference = scheduler.schedule(instance)
    assert scheduler.schedule(instance).starts == reference.starts


# ---------------------------------------------------------------------------
# the array backend's time columns
# ---------------------------------------------------------------------------

class TestArrayIntOnly:
    def test_construction_holds_non_integral_times(self):
        """Float, Fraction and mixed breakpoints are stored as given,
        the list backend's columns exactly, types included."""
        for times in ([0, 1.5], [0, Fraction(1, 2)], [0.0, 1, Fraction(5, 2)],
                      [Fraction(0), 2**63, 2.0**64]):
            caps = [3, 2, 1][: len(times)]
            kernel, ref = ArrayProfile(times, caps), ListProfile(times, caps)
            assert kernel.as_lists() == ref.as_lists() == (times, caps)
            assert ([type(t) for t in kernel.breakpoints]
                    == [type(t) for t in times])

    def test_construction_admits_times_past_int64(self):
        """A list column holds any int: breakpoints at and past 2**63
        are the same function as on the list backend."""
        for times in ([0, 2**63 - 1, 2**63], [0, 2**70]):
            caps = [3, 2, 1][: len(times)]
            kernel, ref = ArrayProfile(times, caps), ListProfile(times, caps)
            assert kernel.as_lists() == ref.as_lists() == (times, caps)
            assert kernel.capacity_at(2**70 + 1) == ref.capacity_at(2**70 + 1)
            for q in (1, 3):
                assert (kernel.earliest_fit(q, 5, after=2**63 - 2)
                        == ref.earliest_fit(q, 5, after=2**63 - 2))

    def test_mutation_holds_non_integral_times(self):
        """Every mutator takes Fraction and float windows and leaves
        the list backend's segments, time types included."""
        kernel, ref = ArrayProfile.constant(4), ListProfile.constant(4)
        for verb, args in (
            ("reserve", (Fraction(1, 2), 1, 1)),
            ("add", (0, 1.5, 1)),
            ("try_reserve", (0.5, 1, 1)),
            ("reserve_fitting", (Fraction(7, 3), 2.25, 2)),
            ("reserve_many", ([(Fraction(1, 3), 1, 1), (4, 0.5, 1)],)),
            ("prune_before", (Fraction(1, 3),)),
        ):
            getattr(kernel, verb)(*args)
            getattr(ref, verb)(*args)
            assert kernel.as_lists() == ref.as_lists(), verb
            assert ([type(t) for t in kernel.breakpoints]
                    == [type(t) for t in ref.breakpoints]), verb

    def test_queries_accept_any_numeric(self):
        p = ArrayProfile.from_segments([(0, 4), (2, 1), (5, 4)])
        assert p.capacity_at(Fraction(5, 2)) == 1
        assert p.min_capacity(1.5, 3.5) == 1
        assert p.max_capacity_between(Fraction(1, 2), 6) == 4
        assert p.area(Fraction(3, 2), Fraction(5, 2)) == Fraction(5, 2)
        assert p.earliest_fit(4, 2, after=Fraction(7, 2)) == 5

    def test_prune_leaves_only_live_segments(self):
        """Pruning leaves no dead prefix to compact: the columns hold
        exactly the live segments after every prune."""
        p = ArrayProfile.constant(8)
        t = 0
        for k in range(2000):
            p.reserve(t, 3, 1)
            t += 5
            p.prune_before(t)  # prefix delete per event
            assert len(p.breakpoints) <= 4
            # the columns hold the live segments and nothing else
            assert len(p._times) == len(p._caps) == p.segment_count()

    def test_fast_mutators_validate_like_reserve(self):
        """try_reserve/reserve_fitting skip only the capacity recheck —
        argument validation must match reserve (review regression)."""
        p = ArrayProfile.constant(4)
        with pytest.raises(InvalidInstanceError, match="non-negative"):
            p.try_reserve(0, 5, -2)
        with pytest.raises(InvalidInstanceError, match="non-negative"):
            p.reserve_fitting(0, 5, -2)
        with pytest.raises(InvalidInstanceError):
            p.try_reserve(-1, 5, 1)
        with pytest.raises(InvalidInstanceError):
            p.try_reserve(0, 0, 1)
        assert p == ArrayProfile.constant(4)

    def test_mutations_past_int64_match_list(self):
        """Windows that start or end at and past 2**63 mutate the
        kernel exactly as they mutate the list backend."""
        for verb in ("reserve", "add", "try_reserve", "reserve_fitting"):
            kernel, ref = ArrayProfile.constant(4), ListProfile.constant(4)
            for start, duration in ((2**70, 5), (2**62, 2**62),
                                    (2**63 - 1, 1), (2**63 - 3, 7)):
                getattr(kernel, verb)(start, duration, 1)
                getattr(ref, verb)(start, duration, 1)
                assert kernel.as_lists() == ref.as_lists(), (verb, start)
        # a miss past 2**63 is an ordinary "does not fit"
        narrow = ArrayProfile.constant(1)
        assert narrow.try_reserve(2**70, 5, 2) is False
        assert narrow == ArrayProfile.constant(1)

    def test_segment_count_matches_breakpoints(self):
        for cls in BACKENDS:
            p = cls([0, 4, 9], [3, 1, 5])
            assert p.segment_count() == len(p.breakpoints) == 3
            p.prune_before(5)
            assert p.segment_count() == len(p.breakpoints)

    def test_integral_subtypes_are_coerced(self):
        p = ArrayProfile.constant(3)
        p.reserve(True, 2, 1)  # bools are Integral: accepted, as on list
        assert p.capacity_at(1) == 2
        assert p.capacity_at(0) == 3


class TestArrayWideScans:
    """``min_capacity``/``max_capacity_between`` over wide windows (64
    segments and more) of a pruned array profile must equal the list
    backend's answers."""

    @staticmethod
    def _profiles(seed):
        rng = random.Random(seed)
        m = 64
        array_p = ArrayProfile.constant(m)
        list_p = ListProfile.constant(m)
        t = 0
        for _ in range(400):
            t += rng.randrange(1, 4)
            p = rng.randrange(1, 30)
            q = rng.randrange(1, 9)
            if list_p.fits(q, t, p):
                array_p.reserve(t, p, q)
                list_p.reserve(t, p, q)
        # prune part of the history so the queries run on the
        # re-anchored columns
        cut = t // 4
        array_p.prune_before(cut)
        list_p.prune_before(cut)
        return rng, cut, t, array_p, list_p

    @pytest.mark.parametrize("seed", range(6))
    def test_scalar_scans_match_list(self, seed):
        """The array backend's scalar scans (its only path) equal the
        list backend on wide windows."""
        minimum = 64
        rng, cut, horizon, array_p, list_p = self._profiles(seed)
        times = array_p.breakpoints
        assert len(times) > 3 * minimum
        windows = []
        for _ in range(60):
            i = rng.randrange(0, len(times) - minimum)
            j = rng.randrange(i + minimum, len(times))
            start = times[i] + rng.randrange(0, 2)
            windows.append((start, times[j] + rng.randrange(1, 3)))
        windows.append((cut, horizon + 50))
        scalar = [
            (array_p.min_capacity(s, e), array_p.max_capacity_between(s, e),
             array_p.max_capacity_between(s))
            for s, e in windows
        ]
        reference = [
            (list_p.min_capacity(s, e), list_p.max_capacity_between(s, e),
             list_p.max_capacity_between(s))
            for s, e in windows
        ]
        assert scalar == reference


# ---------------------------------------------------------------------------
# the kernel against the reference, op by op, in value and in type
# ---------------------------------------------------------------------------

#: Where a random profile's breakpoints sit: near 0, straddling 2**63
#: and well past it (a list column holds any int).
_KERNEL_BASES = (0, 2**63 - 60, 2**64 + 7)


def _time_cast(kind, rng):
    """How an op sequence's integer draws become times of ``kind``.
    ``"mixed"`` gives each draw ``v`` the value ``v / 2`` as an int
    (when integral), a Fraction or a float at random, so equal times of
    different types meet in one profile."""
    if kind == "int":
        return lambda v: v
    if kind == "fraction":
        return lambda v: Fraction(v, 3)
    if kind == "float":
        return lambda v: v / 4.0

    def mixed(v):
        pick = rng.randrange(3)
        if pick == 0 and v % 2 == 0:
            return v // 2
        return Fraction(v, 2) if pick == 1 else v / 2.0

    return mixed


def _typed(value):
    return type(value), value


def _typed_lists(profile):
    times, caps = profile.as_lists()
    return [_typed(t) for t in times], [_typed(c) for c in caps]


def test_kernel_random_ops_match_list_backend():
    """Random mirrored op sequences on :class:`ArrayProfile` and
    :class:`ListProfile`, as a forward sweep issues them (every op at
    or after a pruning frontier that only advances), on int, Fraction,
    float and mixed-type times: each query agrees in value and type,
    each mutation succeeds or fails alike and leaves the same segments
    (same types too), and a failed mutation changes nothing."""
    for kind in ("int", "fraction", "float", "mixed"):
        _kernel_random_ops(kind)


def _kernel_random_ops(kind):
    rng = random.Random(20261018)
    cast = _time_cast(kind, rng)
    # floats are exact only well below 2**53
    bases = _KERNEL_BASES if kind in ("int", "fraction") else (0,)
    for _ in range(150):
        base = rng.choice(bases)
        times = [0] + sorted(base + t for t in rng.sample(range(1, 120), 8))
        caps = [rng.randint(0, 12) for _ in times]
        times = [cast(t) for t in times]
        ref = ListProfile(times, caps)
        kernel = ArrayProfile(times, caps)
        assert _typed_lists(kernel) == _typed_lists(ref)
        front = 0
        for _ in range(40):
            v = max(front, base) + rng.randint(0, 130)
            start = cast(v)
            dur = cast(rng.randint(1, 25))
            q = rng.randint(0, 8)
            op = rng.randrange(11)
            if op == 0:
                assert (_typed(kernel.capacity_at(start))
                        == _typed(ref.capacity_at(start)))
                assert kernel.fits(q, start, dur) is ref.fits(q, start, dur)
                assert (_typed(kernel.min_capacity(start, start + dur))
                        == _typed(ref.min_capacity(start, start + dur)))
            elif op == 1:
                assert (_typed(kernel.earliest_fit(q, dur, after=start))
                        == _typed(ref.earliest_fit(q, dur, after=start)))
            elif op == 2:
                end = None if rng.random() < 0.3 else start + dur
                assert (_typed(kernel.max_capacity_between(start, end))
                        == _typed(ref.max_capacity_between(start, end)))
            elif op == 3:
                assert (kernel.try_reserve(start, dur, q)
                        is ref.try_reserve(start, dur, q))
            elif op == 4:
                outcomes = []
                for profile in (kernel, ref):
                    before = _typed_lists(profile)
                    try:
                        profile.reserve(start, dur, q)
                        outcomes.append(True)
                    except CapacityError:
                        assert _typed_lists(profile) == before
                        outcomes.append(False)
                assert outcomes[0] == outcomes[1]
            elif op == 5:
                if ref.fits(q, start, dur):  # the caller's precondition
                    kernel.reserve_fitting(start, dur, q)
                    ref.reserve_fitting(start, dur, q)
            elif op == 6:
                kernel.add(start, dur, q)
                ref.add(start, dur, q)
            elif op == 7:
                end = cast(v + rng.randint(0, 40))
                assert (_typed(kernel.area(start, end))
                        == _typed(ref.area(start, end)))
            elif op == 8:
                work = cast(rng.randint(0, 400))
                assert (_typed(kernel.first_time_area_reaches(work, start))
                        == _typed(ref.first_time_area_reaches(work, start)))
            else:
                front = max(front, v - rng.randint(0, 30))
                kernel.prune_before(cast(front))
                ref.prune_before(cast(front))
            assert _typed_lists(kernel) == _typed_lists(ref)
            assert kernel.segment_count() == ref.segment_count()


# ---------------------------------------------------------------------------
# kernel-vs-reference: bad arguments fail alike and change nothing
# ---------------------------------------------------------------------------

_BAD_TIMES = (math.nan, math.inf, -math.inf, -1, -0.5)
_PARITY_OPS = {
    "reserve": lambda start, dur, q: (start, dur, q),
    "add": lambda start, dur, q: (start, dur, q),
    "try_reserve": lambda start, dur, q: (start, dur, q),
    "fits": lambda start, dur, q: (q, start, dur),
    "earliest_fit": lambda start, dur, q: (q, dur, start),
}


def _outcome(profile, op, args):
    """The exception type a call raises (the profile must be unchanged
    then), else the answer and the profile after it, both typed."""
    before = _typed_lists(profile)
    try:
        answer = getattr(profile, op)(*args)
    except Exception as exc:  # the type is what the test compares
        assert _typed_lists(profile) == before, (op, args)
        return type(exc)
    # repr, so a NaN answer compares equal to itself
    return repr(_typed(answer)), repr(_typed_lists(profile))


def test_kernel_error_parity_on_bad_arguments():
    """NaN, +-inf and negative starts, durations and widths through each
    mutator and placement query: the kernel and the reference raise the
    same exception type and leave the profile unchanged, or give the
    same answer and the same profile.  A mutator refuses a NaN or
    infinite start and a NaN duration outright."""
    times = _BAD_TIMES + (0, 2, Fraction(5, 2), 2.5)
    for op, arrange in _PARITY_OPS.items():
        for start in times:
            for dur in times:
                for q in (1, 0, -1, math.nan, math.inf):
                    args = arrange(start, dur, q)
                    kernel = _outcome(ArrayProfile([0, 4], [4, 2]), op, args)
                    ref = _outcome(ListProfile([0, 4], [4, 2]), op, args)
                    assert kernel == ref, (op, args, kernel, ref)
                    non_finite = start != start or start == math.inf
                    if op in ("reserve", "add", "try_reserve") and (
                        non_finite or dur != dur
                    ):
                        assert kernel is InvalidInstanceError, (op, args)
