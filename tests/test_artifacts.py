"""The artifact cache: (de)hydrated runs are fingerprint-identical to
cold runs across every machine and both accountings, a pickled compiled
program drops its plans' run-time beta caches, the
canonical singletons survive the pickle channel by identity, the
server-side LRU keys on the program sha alone and evicts correctly, and
each worker's hydrated programs stay within the cache's bound.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.runner import run
from repro.machine.values import EOF, FALSE, NIL, TRUE, UNDEFINED, UNSPECIFIED
from repro.machine.variants import ALL_MACHINES
from repro.programs.separators import GC_VS_TAIL, STACK_VS_GC
from repro.serving import artifacts
from repro.serving.artifacts import (
    ArtifactCache,
    build_artifact,
    clear_hydrated,
    hydrate_artifact,
    program_sha,
    resolve_program,
)
from repro.space.consumption import prepare_program
from repro.telemetry.metrics import MetricsRegistry

pytestmark = pytest.mark.serving

#: Shapes that exercise the interned annotations: quote values
#: (numbers, booleans, the empty list), lexical addresses, if-test
#: fusion, body-fuse accessor lambdas, and self-tail loops.
PROGRAMS = {
    "loop": GC_VS_TAIL,
    "stack": STACK_VS_GC,
    "mixed": """
        (define (len xs)
          (if (null? xs) 0 (+ 1 (len (cdr xs)))))
        (define (build n)
          (if (zero? n) '() (cons n (build (- n 1)))))
        (define (f n) (len (build n)))
    """,
}

_BLOBS = {}


def _blob(name):
    if name not in _BLOBS:
        _BLOBS[name] = build_artifact(prepare_program(PROGRAMS[name]))
    return _BLOBS[name]


def _fingerprint(result):
    return (result.answer, result.steps, result.sup_space,
            result.consumption)


# -- pickle safety -----------------------------------------------------


def test_singletons_unpickle_to_canonical_instances():
    for value in (NIL, TRUE, FALSE, UNSPECIFIED, UNDEFINED, EOF):
        assert pickle.loads(pickle.dumps(value)) is value
    bundle = pickle.loads(pickle.dumps((NIL, (TRUE, FALSE))))
    assert bundle[0] is NIL and bundle[1][0] is TRUE


def test_call_plan_pickle_drops_beta_cache():
    from repro.compiler.prepass import annotate, call_plan
    from repro.machine.policy import identity_permutation
    from repro.syntax.ast import Call, walk

    program = prepare_program(PROGRAMS["mixed"])
    annotate(program)
    site = next(n for n in walk(program) if n.__class__ is Call)
    plan = call_plan(site, identity_permutation(len(site.exprs)))
    plan.beta_cache = ("sentinel", None)
    try:
        copy = pickle.loads(pickle.dumps(plan))
    finally:
        plan.beta_cache = None
    assert copy.beta_cache is None
    assert copy.order == plan.order
    assert copy.suffix_fvs == plan.suffix_fvs


def test_compiled_program_pickle_drops_beta_cache():
    """The program carries its plans through pickle, minus
    ``CallPlan.beta_cache``: the operator this process last applied at
    a site, rebuilt at the first fused application after unpickling."""
    from repro.syntax.ast import Call, walk

    program = prepare_program(PROGRAMS["loop"])
    plan = next(n for n in walk(program) if n.__class__ is Call).identity_plan
    plan.beta_cache = ("sentinel", None)
    try:
        copy = pickle.loads(pickle.dumps(program))
    finally:
        plan.beta_cache = None
    assert copy.annotated
    for original, node in zip(walk(program), walk(copy)):
        if node.__class__ is Call:
            assert node.identity_plan.site is node
            assert node.identity_plan.beta_cache is None
            assert node.identity_plan.order == original.identity_plan.order


# -- fingerprint identity ----------------------------------------------


@settings(max_examples=24, deadline=None)
@given(
    name=st.sampled_from(sorted(PROGRAMS)),
    machine=st.sampled_from(sorted(ALL_MACHINES)),
    linked=st.booleans(),
)
def test_hydrated_runs_match_cold_runs(name, machine, linked):
    """The acceptance property: a run injected from a hydrated
    artifact is fingerprint-identical (answer, steps, sup space,
    consumption) to a cold run from source, across the 8 machines x
    both accountings."""
    n = "7"
    cold = run(PROGRAMS[name], n, machine=machine, meter="exact",
               linked=linked, fixed_precision=True)
    hydrated = hydrate_artifact(_blob(name))
    warm = run(hydrated, n, machine=machine, meter="exact",
               linked=linked, fixed_precision=True)
    assert _fingerprint(warm) == _fingerprint(cold)


def test_hydrated_run_matches_cold_run_unmetered():
    """The unmetered driver, which the fused loop serves,
    runs a hydrated artifact exactly as a cold parse."""
    cold = run(PROGRAMS["mixed"], "6", machine="sfs")
    warm = run(hydrate_artifact(_blob("mixed")), "6", machine="sfs")
    assert _fingerprint(warm) == _fingerprint(cold)


def test_artifact_survives_worker_pickle_channel():
    """The real deployment path: the blob rides a spec through the
    WorkerPool's pickle channel into a fresh process."""
    from repro.harness.sweep import WorkerPool
    from repro.serving.protocol import validate_submit
    from repro.serving.quota import run_service_job

    spec = validate_submit({
        "program": PROGRAMS["loop"], "argument": "30", "machine": "gc",
    })
    spec["program_sha"] = program_sha(spec["program"])
    spec["artifact"] = _blob("loop")
    with WorkerPool(workers=1) as pool:
        receipt = pool.submit(run_service_job, spec).result(timeout=60)
    assert receipt["kind"] == "result"
    expected = run(PROGRAMS["loop"], "30", machine="gc", meter="sampled",
                   fixed_precision=True)
    assert receipt["answer"] == expected.answer
    assert receipt["steps"] == expected.steps
    assert receipt["consumption"] == expected.consumption


def test_resolve_program_hydrates_once_per_sha():
    clear_hydrated()
    spec = {
        "program": PROGRAMS["loop"],
        "program_sha": program_sha(PROGRAMS["loop"]),
        "artifact": _blob("loop"),
    }
    first = resolve_program(spec)
    second = resolve_program(spec)
    assert first is second  # the per-worker table, not a re-unpickle
    # Like the sha, the table ignores surrounding whitespace.
    assert resolve_program(dict(spec, program=spec["program"] + "\n")) \
        is first
    assert resolve_program({"program": "(define (f n) n)"}) \
        == "(define (f n) n)"
    clear_hydrated()


def test_hydrated_programs_stay_within_the_cache_bound():
    """A worker resolving more distinct artifacts than the artifact
    cache holds keeps only the most recently used ones, in the front
    end's table of compiled programs (keyed on the source text)."""
    from repro.compiler import frontend

    clear_hydrated()
    bound = artifacts.DEFAULT_CAPACITY
    sources = [f"(define (f n) (+ n {k}))" for k in range(bound + 3)]
    for source in sources:
        resolve_program({
            "program": source,
            "program_sha": program_sha(source),
            "artifact": build_artifact(source),
        })
    assert len(frontend._COMPILED) == bound
    assert sources[0] not in frontend._COMPILED
    assert sources[-1] in frontend._COMPILED
    clear_hydrated()


def test_artifact_version_gate():
    payload = pickle.loads(_blob("loop"))
    payload["version"] = 999
    with pytest.raises(ValueError, match="artifact version"):
        hydrate_artifact(pickle.dumps(payload))


# -- the LRU -----------------------------------------------------------


def test_cache_hit_miss_and_build_counters():
    metrics = MetricsRegistry()
    cache = ArtifactCache(capacity=4, metrics=metrics)
    blob = cache.get_or_build("sha1", lambda: b"x")
    assert blob == b"x"
    assert cache.get_or_build("sha1", lambda: b"never") == b"x"
    assert cache.lookup("sha2") is None
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 2  # the build's probe + the sha2 miss
    assert stats["builds"] == 1
    assert stats["entries"] == 1
    assert metrics.counter("artifact_cache", event="hits").value == 1
    assert metrics.counter("artifact_cache", event="builds").value == 1


def test_cache_evicts_least_recently_used():
    cache = ArtifactCache(capacity=2)
    cache.put("a", b"a")
    cache.put("b", b"b")
    assert cache.lookup("a") == b"a"  # refresh a
    cache.put("c", b"c")  # evicts b, not a
    assert "b" not in cache
    assert cache.lookup("a") == b"a"
    assert cache.lookup("c") == b"c"
    assert cache.stats()["evictions"] == 1
    assert len(cache) == 2


def test_cache_keys_on_the_sha_alone():
    """One program submitted for two machines builds once; the
    positional (sha, machine, stepper, build) call still works."""
    cache = ArtifactCache(capacity=4)
    assert cache.get_or_build("a", "tail", "annotated", lambda: b"1") == b"1"
    assert cache.get_or_build("a", "gc", "seed", lambda: b"2") == b"1"
    assert cache.get_or_build("a", lambda: b"3") == b"1"
    assert cache.stats()["builds"] == 1
    assert len(cache) == 1


def test_cache_failed_build_caches_nothing():
    cache = ArtifactCache(capacity=2)

    def boom():
        raise ValueError("malformed")

    with pytest.raises(ValueError):
        cache.get_or_build("bad", boom)
    assert len(cache) == 0
    assert cache.stats()["builds"] == 0


def test_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        ArtifactCache(capacity=0)


def test_program_sha_is_content_addressed():
    assert program_sha("  (define (f n) n)\n") == \
        program_sha("(define (f n) n)")
    assert program_sha("(define (f n) n)") != \
        program_sha("(define (g n) n)")
