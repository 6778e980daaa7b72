"""The front end's outputs, pinned: tokens, datums and call plans.

The digests below were computed with the recursive-descent reader and
the multi-pass ``CallPlan`` this reader and prepass replaced, over
every program the repository ships; the current code must reproduce
them exactly.
"""

import glob
import hashlib
import os

from repro.compiler.frontend import prepare_program
from repro.programs import examples
from repro.programs.corpus import corpus_names, load_program
from repro.programs.separators import SEPARATORS, theorem26_program
from repro.reader import read_all
from repro.reader.lexer import tokenize
from repro.syntax.ast import Call, walk

FUZZ_CORPUS = os.path.join(os.path.dirname(__file__), "fuzz_corpus")

TOKENS_AND_DATUMS_SHA256 = (
    "a81d10ad293872a6be5fe6e40e4f9846d7a33fcaed9a488e759a15bfcaa554e9"
)
CORPUS_PLANS_SHA256 = (
    "ba7fde52d7c25c1bce1d483bb265a0f22edb69dab32183fd9487cd5c887c031d"
)


def shipped_programs():
    """(name, source) of every program the repository ships."""
    programs = [(name, load_program(name).source) for name in corpus_names()]
    programs += [(sep.name, sep.source) for sep in SEPARATORS]
    programs += sorted(
        (name, value)
        for name, value in vars(examples).items()
        if name.isupper() and isinstance(value, str)
    )
    for shape in ("right", "left"):
        programs.append((f"find-leftmost-{shape}",
                         examples.find_leftmost_program(shape)))
        programs.append((f"tree-build-{shape}",
                         examples.tree_build_only_program(shape)))
    programs += [(f"theorem26-{k}", theorem26_program(k)) for k in range(25)]
    for path in sorted(glob.glob(os.path.join(FUZZ_CORPUS, "*.scm"))):
        with open(path) as handle:
            programs.append((os.path.basename(path), handle.read()))
    return programs


def tokens_and_datums_digest(programs):
    digest = hashlib.sha256()
    for name, source in programs:
        tokens = [(t.kind, t.text, t.line, t.column) for t in tokenize(source)]
        digest.update(repr((name, tokens, read_all(source))).encode())
    return digest.hexdigest()


def plan_rows(program):
    """Every CallPlan field of *program*'s call sites, with nodes named
    by their preorder position and name sets sorted."""
    index = {}
    for position, node in enumerate(walk(program)):
        index.setdefault(id(node), position)

    def nodes(exprs):
        return tuple(index[id(expr)] for expr in exprs)

    rows = []
    for node in walk(program):
        if type(node) is not Call:
            continue
        plans = getattr(node, "plans", None) or {}
        for order in sorted(plans):
            plan = plans[order]
            rows.append((
                index[id(plan.site)], plan.order, index[id(plan.first)],
                nodes(plan.pending),
                tuple(nodes(suffix) for suffix in plan.suffixes),
                tuple(tuple(sorted(fv)) for fv in plan.suffix_fvs),
                plan.is_identity, nodes(plan.in_order), plan.kinds,
                plan.simple_all, plan.fuse_cost, plan.addrs,
                tuple(repr(const) for const in plan.consts),
                tuple(None if inner is None else
                      (index[id(inner.site)], inner.order)
                      for inner in plan.nested),
                plan.speculate, plan.beta_only, plan.beta_cache,
                node.identity_plan is plan,
            ))
    return rows


def corpus_plans_digest():
    digest = hashlib.sha256()
    sites = 0
    for name in corpus_names():
        rows = plan_rows(prepare_program(load_program(name).source))
        sites += len(rows)
        digest.update(repr((name, rows)).encode())
    return digest.hexdigest(), sites


def test_tokens_and_datums_of_every_shipped_program():
    programs = shipped_programs()
    assert len(programs) == 24 + 4 + 9 + 4 + 25 + 16
    assert tokens_and_datums_digest(programs) == TOKENS_AND_DATUMS_SHA256


def test_call_plans_of_the_corpus():
    digest, sites = corpus_plans_digest()
    assert sites == 1092
    assert digest == CORPUS_PLANS_SHA256


def test_reader_depth_is_not_bounded_by_the_python_stack():
    depth = 100_000
    datum, = read_all("(+ 1 " * depth + "0" + ")" * depth)
    for _ in range(depth):
        assert len(datum) == 3 and datum[1] == 1
        datum = datum[2]
    assert datum == 0
