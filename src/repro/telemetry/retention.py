"""Why-live retention provenance over the CESK heap.

The blame profiler (:mod:`repro.telemetry.blame`) says exactly *who*
holds the words of an S_X/U_X measurement; this module says *why they
are still live*.  A :class:`RetentionSnapshot` is a rooted graph over
one configuration:

- the roots are exactly the GC roots of :func:`repro.machine.gc.
  state_roots` — the register environment, every continuation frame,
  and the accumulator — plus one synthetic root for store cells that
  are unreachable but still charged (observations happen *before* the
  step's collection, so pre-GC garbage is part of the measured space);
- the edges mirror :func:`repro.machine.gc.reachable_locations`'
  traversal exactly: environment ribs, frame-held locations and parked
  values, closure environments, pair/vector slots, and the frames
  captured by escape procedures;
- every node carries a *self size* under the requested accounting
  (Figure 7 flat or Figure 8 linked), assigned so that the node sizes
  sum to precisely the configuration space the meter reports.

On top of the graph two analyses answer "why is this word live":

- shortest root paths (:meth:`RetentionSnapshot.why_live`): the BFS
  path "root kont:Return@(f (- n 1)) -> rib n -> NUM cell", each
  location annotated with its allocation site (AST node + step index,
  recorded by :class:`AllocSites` through the meter's existing store
  hooks at zero cost when disabled);
- a dominator tree (iterative Cooper–Harvey–Kennedy over the reverse
  post-order) giving every node its exact *retained* size — the words
  that would become unreachable if that node released its references.
  Because the virtual super-root's dominator children partition the
  graph, their retained sizes sum to exactly the metered space: the
  same exactness oracle the blame profiler answers to, held under both
  accountings at every sampled configuration
  (``tests/test_retention.py``).

:class:`RetentionProfiler` samples snapshots over a metered run (the
cadence and bounded-series discipline of
:class:`~repro.telemetry.blame.BlameProfiler`, reusing
:class:`~repro.telemetry.blame.BlameSeries` for the per-root retained
time-series), :func:`retention_diff` compares two runs' peak snapshots
per root class (the gc-vs-tail separator gap is literally the
Return-kont rows), and :meth:`RetentionSnapshot.folded_stacks` emits
the dominator tree as a folded-stacks flamegraph
(:func:`repro.telemetry.export.write_flamegraph`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..machine.config import Final
from ..machine.continuation import CallK, Push, chain
from ..machine.gc import reachable_locations, state_roots
from ..machine.values import Closure, Escape, Pair, Vector
from ..space.flat import value_space
from ..space.linked import value_structural
from .blame import BlameSeries, _kont_label, _value_label, holder_class, node_label

#: Root label for store cells kept alive by more than one root (their
#: immediate dominator is the super-root, so no single root owns them).
SHARED_LABEL = "(shared)"

#: Root label for pre-GC garbage: cells charged by the measurement but
#: unreachable from the configuration's roots.
UNREACHABLE_LABEL = "(unreachable)"


class AllocSites:
    """Allocation-site provenance: location -> (AST node, step index).

    Rides the meter's store-mutation hooks (``meter.prov``): before
    every transition the run loop tells it the current site (the
    control expression, or the value state's continuation call site),
    and each ``on_alloc`` stamps the fresh location with it.  Cells
    allocated before the first step (program injection, priming) have
    no entry and render as ``(initial)``.  Deletions drop their entry,
    so the table tracks the live store.
    """

    __slots__ = ("sites", "_site", "_step")

    def __init__(self):
        self.sites: Dict[int, Tuple[object, int]] = {}
        self._site = None
        self._step = 0

    def pre_step(self, state, steps: int) -> None:
        """Called by the run loop immediately before each transition:
        allocations during the coming step belong to this site."""
        self._step = steps + 1
        if state.is_value:
            self._site = getattr(state.kont, "site", None)
        else:
            self._site = state.control

    # -- store tracker fan-in (via the metering engine) ---------------------

    def on_alloc(self, location, value) -> None:
        self.sites[location] = (self._site, self._step)

    def on_delete(self, location, value) -> None:
        self.sites.pop(location, None)

    def render(self, location) -> str:
        """Human-readable provenance for a location."""
        entry = self.sites.get(location)
        if entry is None:
            return "(initial)"
        site, step = entry
        if site is None:
            return f"step {step}"
        return f"{node_label(site)} @ step {step}"


def _value_edge_targets(value) -> List[Tuple[int, str]]:
    """(location, edge label) pairs for everything *value* keeps
    reachable — the same frontier :func:`reachable_locations` visits:
    ``locations()`` plus, for escapes, the captured continuation's
    frames (locations and parked values, iteratively)."""
    out: List[Tuple[int, str]] = []
    pending: List[Tuple[object, str]] = [(value, "")]
    seen_frames: set = set()
    while pending:
        v, prefix = pending.pop()
        if isinstance(v, Closure):
            out.append((v.tag, prefix + "tag"))
            for name, location in v.env._bindings.items():
                out.append((location, prefix + f"rib {name}"))
        elif isinstance(v, Escape):
            out.append((v.tag, prefix + "tag"))
            for frame in chain(v.kont):
                if id(frame) in seen_frames:
                    break
                seen_frames.add(id(frame))
                for location in frame.direct_locations():
                    out.append((location, prefix + "captured"))
                for parked in frame.direct_values():
                    pending.append((parked, prefix + "captured "))
        elif isinstance(v, Pair):
            out.append((v.car_loc, prefix + "car"))
            out.append((v.cdr_loc, prefix + "cdr"))
        elif isinstance(v, Vector):
            for i, location in enumerate(v.locations_):
                out.append((location, prefix + f"[{i}]"))
        else:
            for location in v.locations():
                out.append((location, prefix + "ref"))
    return out


@dataclass
class RetentionSnapshot:
    """One configuration's retention graph, dominator tree, and exact
    per-node self/retained sizes.

    Parallel per-node lists (index 0 is the virtual super-root R):
    ``labels``/``kinds``/``selfs``/``retained``/``idom``/``locations``/
    ``provenance``.  ``sum(selfs) == space`` and the super-root's
    dominator children partition it: ``sum(root_retention().values())
    == space`` — the exactness oracle.
    """

    machine: str = ""
    linked: bool = False
    fixed_precision: bool = False
    step: int = 0
    space: int = 0
    labels: List[str] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    selfs: List[int] = field(default_factory=list)
    retained: List[int] = field(default_factory=list)
    idom: List[int] = field(default_factory=list)
    locations: List[Optional[int]] = field(default_factory=list)
    provenance: List[Optional[str]] = field(default_factory=list)
    succs: List[List[int]] = field(default_factory=list)
    edge_labels: Dict[Tuple[int, int], str] = field(default_factory=dict)
    loc_node: Dict[int, int] = field(default_factory=dict)
    _bfs_parent: Optional[List[int]] = None

    def __len__(self) -> int:
        return len(self.labels)

    # -- the partition oracle ------------------------------------------------

    def root_retention(self) -> Dict[str, int]:
        """Retained words per root: one entry per super-root dominator
        child, keyed by the root's label (locations dominated directly
        by R — kept alive by several roots at once — fold into
        ``(shared)``).  The values sum to exactly ``space``."""
        roots: Dict[str, int] = {}
        for node in range(1, len(self.labels)):
            if self.idom[node] != 0:
                continue
            if self.kinds[node] == "loc":
                key = SHARED_LABEL
            else:
                key = self.labels[node]
            roots[key] = roots.get(key, 0) + self.retained[node]
        return roots

    def root_retention_by_class(self) -> Dict[str, int]:
        """``root_retention`` re-keyed by :func:`holder_class` (call
        sites stripped), for cross-program comparison."""
        classed: Dict[str, int] = {}
        for key, words in self.root_retention().items():
            cls = holder_class(key)
            classed[cls] = classed.get(cls, 0) + words
        return classed

    # -- why-live paths ------------------------------------------------------

    def _bfs(self) -> List[int]:
        parent = self._bfs_parent
        if parent is None:
            parent = [-1] * len(self.labels)
            parent[0] = 0
            queue = [0]
            head = 0
            while head < len(queue):
                node = queue[head]
                head += 1
                for target in self.succs[node]:
                    if parent[target] < 0:
                        parent[target] = node
                        queue.append(target)
            self._bfs_parent = parent
        return parent

    def why_live(self, location: int) -> Optional[List[Tuple[int, str]]]:
        """The shortest root path to *location*: a list of
        (node index, edge label from its predecessor) hops starting at
        the root node (edge label "") and ending at the location's
        node; None when the location is not in the graph."""
        node = self.loc_node.get(location)
        if node is None:
            return None
        parent = self._bfs()
        if parent[node] < 0:
            return None
        hops: List[Tuple[int, str]] = []
        while node != 0:
            prev = parent[node]
            hops.append((node, self.edge_labels.get((prev, node), "")))
            node = prev
        hops.reverse()
        return hops

    def render_path(self, location: int) -> str:
        """``why_live`` rendered for humans: ``root <label> -> rib x ->
        <cell> [alloc <site>]``."""
        hops = self.why_live(location)
        if hops is None:
            return f"location {location}: not in this configuration"
        parts: List[str] = []
        for i, (node, edge) in enumerate(hops):
            label = self.labels[node]
            if i == 0:
                parts.append(f"root {label}")
            elif edge:
                parts.append(f"{edge} -> {label}")
            else:
                parts.append(f"-> {label}")
        target = hops[-1][0]
        site = self.provenance[target]
        suffix = f" [alloc {site}]" if site else ""
        return " ".join(parts) + suffix

    def top_locations(self, top: int = 3) -> List[int]:
        """Store locations ranked by retained words (largest first) —
        the cells whose why-live story matters most."""
        ranked = sorted(
            (
                (self.retained[node], location)
                for location, node in self.loc_node.items()
            ),
            key=lambda pair: (-pair[0], pair[1]),
        )
        return [location for _words, location in ranked[:top]]

    # -- flamegraph ----------------------------------------------------------

    def folded_stacks(self) -> List[str]:
        """The dominator tree as folded flamegraph stacks: one
        ``R;<label>;...;<label> <self words>`` line per node with a
        positive self size (identical paths merged by summing).  The
        line weights sum to exactly ``space``."""
        children: List[List[int]] = [[] for _ in self.labels]
        for node in range(1, len(self.labels)):
            children[self.idom[node]].append(node)
        folded: Dict[str, int] = {}
        stack: List[Tuple[int, str]] = [(0, "R")]
        while stack:
            node, path = stack.pop()
            words = self.selfs[node]
            if words:
                folded[path] = folded.get(path, 0) + words
            for child in children[node]:
                label = self.labels[child].replace(";", ",")
                stack.append((child, f"{path};{label}"))
        return [
            f"{path} {words}"
            for path, words in sorted(folded.items())
        ]

    # -- plain-data form -----------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready node table (what the retention JSONL export and
        the sweep channel carry)."""
        return {
            "machine": self.machine,
            "linked": self.linked,
            "fixed_precision": self.fixed_precision,
            "step": self.step,
            "space": self.space,
            "nodes": [
                {
                    "id": node,
                    "label": self.labels[node],
                    "node_kind": self.kinds[node],
                    "self": self.selfs[node],
                    "retained": self.retained[node],
                    "idom": self.idom[node],
                    "root": node != 0 and self.idom[node] == 0,
                    "location": self.locations[node],
                    "site": self.provenance[node],
                }
                for node in range(len(self.labels))
            ],
        }


def _dominators(
    succs: List[List[int]],
) -> Tuple[List[int], List[int]]:
    """Immediate dominators from the super-root (node 0), iterative
    Cooper–Harvey–Kennedy.  Returns (idom, reverse post-order)."""
    count = len(succs)
    # Iterative DFS for the post-order.
    postorder: List[int] = []
    visited = [False] * count
    stack: List[Tuple[int, int]] = [(0, 0)]
    visited[0] = True
    while stack:
        node, edge = stack[-1]
        if edge < len(succs[node]):
            stack[-1] = (node, edge + 1)
            target = succs[node][edge]
            if not visited[target]:
                visited[target] = True
                stack.append((target, 0))
        else:
            stack.pop()
            postorder.append(node)
    rpo = postorder[::-1]
    rpo_index = [0] * count
    for index, node in enumerate(rpo):
        rpo_index[node] = index
    preds: List[List[int]] = [[] for _ in range(count)]
    for node, targets in enumerate(succs):
        if not visited[node]:
            continue
        for target in targets:
            preds[target].append(node)
    idom: List[int] = [-1] * count
    idom[0] = 0

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rpo_index[a] > rpo_index[b]:
                a = idom[a]
            while rpo_index[b] > rpo_index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in rpo:
            if node == 0:
                continue
            new_idom = -1
            for pred in preds[node]:
                if idom[pred] < 0:
                    continue
                new_idom = pred if new_idom < 0 else intersect(new_idom, pred)
            if new_idom >= 0 and idom[node] != new_idom:
                idom[node] = new_idom
                changed = True
    return idom, rpo


def retention_snapshot(
    configuration,
    linked: bool = False,
    fixed_precision: bool = False,
    sites: Optional[AllocSites] = None,
    machine: str = "",
    step: int = 0,
    space: Optional[int] = None,
) -> RetentionSnapshot:
    """Build the retention graph of one configuration.

    ``space`` is the meter's measurement when sampling a metered run;
    left None it is recomputed from the configuration (the oracle).
    The node self sizes always sum to it exactly, under either
    accounting.
    """
    if space is None:
        from ..space.flat import configuration_space
        from ..space.linked import configuration_space_linked

        space = (
            configuration_space_linked(configuration, fixed_precision)
            if linked
            else configuration_space(configuration, fixed_precision)
        )
    store = configuration.store
    is_final = isinstance(configuration, Final)
    if is_final:
        root_values: Tuple = (configuration.value,)
        env = None
        kont = None
        acc = configuration.value
    else:
        root_values, env, kont = state_roots(configuration)
        acc = configuration.control if configuration.is_value else None
    reachable = reachable_locations(store, root_values, env, kont)
    unreachable = sorted(
        location for location in store.locations() if location not in reachable
    )

    labels: List[str] = ["R"]
    kinds: List[str] = ["R"]
    selfs: List[int] = [0]
    locations: List[Optional[int]] = [None]
    provenance: List[Optional[str]] = [None]
    succs: List[List[int]] = [[]]
    edge_labels: Dict[Tuple[int, int], str] = {}

    def new_node(label: str, kind: str, location=None, site=None) -> int:
        index = len(labels)
        labels.append(label)
        kinds.append(kind)
        selfs.append(0)
        locations.append(location)
        provenance.append(site)
        succs.append([])
        return index

    def add_edge(source: int, target: int, label: str) -> None:
        succs[source].append(target)
        edge_labels.setdefault((source, target), label)

    frames = list(chain(kont)) if kont is not None else []
    env_node = None if env is None else new_node("env:register", "env")
    frame_nodes = [
        new_node(_kont_label(frame), "kont") for frame in frames
    ]
    acc_node = (
        None if acc is None else new_node(_value_label(acc, "acc"), "acc")
    )
    loc_node: Dict[int, int] = {}
    for location, value in store.items():
        loc_node[location] = new_node(
            _value_label(value, "store"),
            "loc",
            location=location,
            site=sites.render(location) if sites is not None else None,
        )
    unreachable_node = (
        new_node(UNREACHABLE_LABEL, "unreachable") if unreachable else None
    )

    # -- edges (mirroring reachable_locations' traversal) -------------------
    if env_node is not None:
        add_edge(0, env_node, "")
        for name, location in env._bindings.items():
            if location in store:
                add_edge(env_node, loc_node[location], f"rib {name}")
    for frame, node in zip(frames, frame_nodes):
        add_edge(0, node, "")
        if frame.env is not None:
            for name, location in frame.env._bindings.items():
                if location in store:
                    add_edge(node, loc_node[location], f"rib {name}")
        frame_set = getattr(frame, "frame", None)
        if frame_set is not None:
            for location in frame_set:
                if location in store:
                    add_edge(node, loc_node[location], "A")
        for parked in frame.direct_values():
            for location, label in _value_edge_targets(parked):
                if location in store:
                    add_edge(node, loc_node[location], f"parked {label}")
    if acc_node is not None:
        add_edge(0, acc_node, "")
        for location, label in _value_edge_targets(acc):
            if location in store:
                add_edge(acc_node, loc_node[location], label)
    for location, value in store.items():
        source = loc_node[location]
        live = location in reachable
        for target, label in _value_edge_targets(value):
            if target not in store:
                continue
            # Garbage does not explain liveness: edges from unreachable
            # cells into the live heap are dropped so dominator
            # attribution stays on the real retainers.
            if not live and target in reachable:
                continue
            add_edge(source, loc_node[target], label)
    if unreachable_node is not None:
        add_edge(0, unreachable_node, "")
        for location in unreachable:
            add_edge(unreachable_node, loc_node[location], "pending-gc")

    # -- self sizes ----------------------------------------------------------
    if linked:
        bindings: set = set()
        seen_konts: set = set()

        def new_binding_words(an_env) -> int:
            if an_env is None:
                return 0
            fresh = an_env.graph() - bindings
            bindings.update(fresh)
            return len(fresh)

        def kont_words(a_kont) -> int:
            # _LinkedTally.add_kont: a shared ancestor ends the whole
            # walk; parked values cost only the frame's m/n words.
            words = 0
            for frame in chain(a_kont):
                if id(frame) in seen_konts:
                    return words
                seen_konts.add(id(frame))
                if isinstance(frame, Push):
                    words += 1 + len(frame.pending) + len(frame.done)
                elif isinstance(frame, CallK):
                    words += 1 + len(frame.args)
                else:
                    words += 1
                words += new_binding_words(frame.env)
            return words

        def value_words(value, cell: int) -> int:
            if isinstance(value, Closure):
                return cell + 1 + new_binding_words(value.env)
            if isinstance(value, Escape):
                return cell + 1 + kont_words(value.kont)
            return cell + value_structural(value, fixed_precision)

        # Same walk order as _LinkedTally / _blame_linked: register
        # environment, continuation frames, accumulator, store cells —
        # each distinct binding charged to its first contributor.
        if env_node is not None:
            selfs[env_node] = new_binding_words(env)
        for frame, node in zip(frames, frame_nodes):
            if id(frame) in seen_konts:
                continue
            seen_konts.add(id(frame))
            if isinstance(frame, Push):
                words = 1 + len(frame.pending) + len(frame.done)
            elif isinstance(frame, CallK):
                words = 1 + len(frame.args)
            else:
                words = 1
            selfs[node] = words + new_binding_words(frame.env)
        if acc_node is not None:
            selfs[acc_node] = value_words(acc, 0)
        for location, value in store.items():
            selfs[loc_node[location]] = value_words(value, 1)
    else:
        if env_node is not None:
            selfs[env_node] = len(env._bindings)
        for frame, node in zip(frames, frame_nodes):
            parent = frame.parent
            selfs[node] = frame.flat_space - (
                parent.flat_space if parent is not None else 0
            )
        if acc_node is not None:
            selfs[acc_node] = value_space(acc, fixed_precision)
        for location, value in store.items():
            selfs[loc_node[location]] = 1 + value_space(value, fixed_precision)

    # -- dominators and retained sizes --------------------------------------
    idom, rpo = _dominators(succs)
    retained = list(selfs)
    for node in reversed(rpo):
        if node != 0:
            retained[idom[node]] += retained[node]

    return RetentionSnapshot(
        machine=machine,
        linked=linked,
        fixed_precision=fixed_precision,
        step=step,
        space=space,
        labels=labels,
        kinds=kinds,
        selfs=selfs,
        retained=retained,
        idom=idom,
        locations=locations,
        provenance=provenance,
        succs=succs,
        edge_labels=edge_labels,
        loc_node=loc_node,
    )


class RetentionProfiler:
    """Samples retention snapshots over a metered run.

    The observation contract is :class:`~repro.telemetry.blame.
    BlameProfiler`'s: ``run_metered`` calls :meth:`observe` at every
    measure point with the configuration and the space it measured;
    ``every=k`` snapshots every k-th observation.  Additionally the
    loop calls :meth:`pre_step` before each transition so allocation
    sites can be stamped (wired into the engine's store hooks by
    :meth:`attach_engine`; zero work when no profiler is attached).

    Retains: the full snapshot at the peak (``at_peak`` — flamegraphs
    and why-live paths read it), a per-sample exactness receipt
    ``history`` of (step, space, self-sum, root-partition-sum) tuples,
    and a bounded per-root retained-size time-series with the blame
    profiler's stride-doubling compaction, exposed as a
    :class:`~repro.telemetry.blame.BlameSeries` (every point's values
    sum to that point's measured space).
    """

    def __init__(self, every: int = 1, series_capacity: int = 256):
        if every < 1:
            raise ValueError("every must be >= 1")
        if series_capacity < 0:
            raise ValueError("series_capacity must be >= 0")
        self.every = every
        self.series_capacity = series_capacity
        self.sites = AllocSites()
        self.machine: Optional[str] = None
        self.linked = False
        self.fixed_precision = False
        self.observed = 0
        self.sampled = 0
        self.peak_space = -1
        self.peak_step = 0
        self.at_peak: Optional[RetentionSnapshot] = None
        self.history: List[Tuple[int, int, int, int]] = []
        self.series_stride = 1
        self._series_steps: List[int] = []
        self._series_spaces: List[int] = []
        self._series_roots: List[Dict[str, int]] = []

    def bind(self, machine: str, linked: bool, fixed_precision: bool) -> None:
        """Called by the meter before the run starts."""
        self.machine = machine
        self.linked = linked
        self.fixed_precision = fixed_precision

    def attach_engine(self, meter) -> None:
        """Wire the allocation-site sink into the engine's store hooks
        (called by ``run_metered`` after :meth:`bind`)."""
        if hasattr(meter, "prov"):
            meter.prov = self.sites

    def pre_step(self, state, steps: int) -> None:
        self.sites.pre_step(state, steps)

    def observe(self, configuration, space: int, step: int) -> None:
        count = self.observed
        self.observed = count + 1
        if count % self.every:
            return
        snapshot = retention_snapshot(
            configuration,
            self.linked,
            self.fixed_precision,
            sites=self.sites,
            machine=self.machine or "",
            step=step,
            space=space,
        )
        sample_index = self.sampled
        self.sampled = sample_index + 1
        roots = snapshot.root_retention()
        self.history.append(
            (step, space, sum(snapshot.selfs), sum(roots.values()))
        )
        if space > self.peak_space:
            self.peak_space = space
            self.peak_step = step
            self.at_peak = snapshot
        capacity = self.series_capacity
        if capacity and sample_index % self.series_stride == 0:
            if len(self._series_steps) >= capacity:
                self._series_steps = self._series_steps[::2]
                self._series_spaces = self._series_spaces[::2]
                self._series_roots = self._series_roots[::2]
                self.series_stride *= 2
                if sample_index % self.series_stride:
                    return
            self._series_steps.append(step)
            self._series_spaces.append(space)
            self._series_roots.append(roots)

    def series(self, include_peak: bool = True) -> BlameSeries:
        """The per-root retained time-series as a
        :class:`~repro.telemetry.blame.BlameSeries` (root labels as
        holders; each point's values sum to its measured space)."""
        steps = list(self._series_steps)
        spaces = list(self._series_spaces)
        roots = [dict(point) for point in self._series_roots]
        if (
            include_peak
            and self.peak_space >= 0
            and self.at_peak is not None
            and self.peak_step not in steps
        ):
            at = next(
                (i for i, step in enumerate(steps) if step > self.peak_step),
                len(steps),
            )
            steps.insert(at, self.peak_step)
            spaces.insert(at, self.peak_space)
            roots.insert(at, self.at_peak.root_retention())
        return BlameSeries(
            machine=self.machine or "",
            linked=self.linked,
            fixed_precision=self.fixed_precision,
            steps=steps,
            spaces=spaces,
            blames=roots,
            stride=self.series_stride,
        )


def retention_diff(left: RetentionSnapshot, right: RetentionSnapshot) -> dict:
    """Compare two peak snapshots per root *class* (call sites
    stripped, so the same program on two machines lines up).

    ``vanished`` lists the root classes retaining words on the left
    but absent (or empty) on the right — for the gc-vs-tail separator
    these are exactly the ``kont:Return`` chains — and ``gap`` is the
    raw peak-space separation they explain.
    """
    left_roots = left.root_retention_by_class()
    right_roots = right.root_retention_by_class()
    vanished = sorted(
        cls
        for cls, words in left_roots.items()
        if words and not right_roots.get(cls)
    )
    return {
        "left": left_roots,
        "right": right_roots,
        "vanished": vanished,
        "vanished_words": sum(left_roots[cls] for cls in vanished),
        "left_space": left.space,
        "right_space": right.space,
        "gap": left.space - right.space,
    }


def retention_run(
    machine_name: str,
    program,
    argument=None,
    *,
    linked: bool = False,
    fixed_precision: bool = False,
    stepper: str = "annotated",
    engine: str = "delta",
    gc_interval: int = 1,
    step_limit: Optional[int] = None,
    every: int = 1,
    series_capacity: int = 256,
):
    """Run one program under the exact meter with a retention profiler
    attached; returns ``(MeterResult, RetentionProfiler)``.  This is
    what ``repro analyze --retention`` drives."""
    from ..machine.variants import make_stepper
    from ..compiler.frontend import prepare_input, prepare_program
    from ..space.meter import DEFAULT_STEP_LIMIT, run_metered

    machine = make_stepper(machine_name, stepper)
    profiler = RetentionProfiler(every=every, series_capacity=series_capacity)
    result = run_metered(
        machine,
        prepare_program(program),
        prepare_input(argument),
        linked=linked,
        fixed_precision=fixed_precision,
        gc_interval=gc_interval,
        step_limit=step_limit if step_limit is not None else DEFAULT_STEP_LIMIT,
        engine=engine,
        retention=profiler,
    )
    return result, profiler


__all__ = [
    "AllocSites",
    "RetentionProfiler",
    "RetentionSnapshot",
    "SHARED_LABEL",
    "UNREACHABLE_LABEL",
    "retention_diff",
    "retention_run",
    "retention_snapshot",
]
