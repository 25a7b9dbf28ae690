"""Connected components over near-duplicate pair graphs.

Pair emitters (:func:`rayfts.ops.dedup.minhash_dedup_pairs`,
:func:`~rayfts.ops.dedup.ngram_jaccard_pairs`, simhash) stop at
EDGES; production dedup keeps ONE document per
near-dup CLUSTER, which is the connected component of that graph
(the GPT-3 / RefinedWeb / Dolma convention: cluster, keep the
canonical member, drop the rest).

Algorithm: **hash-to-min** (Rastogi, Machanavajjhala, Chitnis, Das
Sarma, "Finding Connected Components in Map-Reduce in Logarithmic
Rounds", ICDE 2013 — public): each node v holds a member set C(v)
(initially its neighbours plus itself); per round every node sends
``min(C(v))`` to all members and sends C(v) to that min; new C(v) is
the union of what arrived. Converges in O(log d) rounds (d =
component diameter; near-dup clusters are shallow, 2–4 rounds in
practice) to a state where every node holds its component minimum.

Distributed shape (Ray-Data-first):

- state is a Dataset of (node, member) rows — never on the driver;
- one round = one ``groupby(node).map_groups`` (vectorized numpy
  min/union per group, no Python row loop) emitting the messages,
  whose receiver-side dedup happens inside the NEXT round's group
  (so each round is exactly one hash exchange);
- convergence is detected from a summary-sized per-round aggregate
  (row count + label checksum), not by materializing state;
- the only wide edges carry pair-graph-sized data — the corpus
  itself is never shuffled.

Skew note: at convergence the component-minimum node's group holds
the whole component, so one task sees ``O(|component|)`` rows. For
near-dup graphs components are small; a pathological giant component
(e.g. boilerplate that chains everything) concentrates in one task —
``max_component`` caps the per-group emission and marks the overflow
by keeping only the cap's worth of members (documented truncation,
same convention as ``max_shingle_df`` in the pair emitters).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Count, Sum


_EMPTY_CC = pa.table({
    "node": pa.array([], type=pa.int64()),
    "member": pa.array([], type=pa.int64()),
})


def _sym_edges(batch: pa.Table, id_a: str, id_b: str) -> pa.Table:
    """(a,b) pairs -> (node, member) rows both ways plus self rows."""
    if batch.num_rows == 0:
        return _EMPTY_CC
    a = batch[id_a].to_numpy(zero_copy_only=False).astype(np.int64)
    b = batch[id_b].to_numpy(zero_copy_only=False).astype(np.int64)
    node = np.concatenate([a, b, a, b])
    member = np.concatenate([b, a, a, b])
    return pa.table({"node": pa.array(node, type=pa.int64()),
                     "member": pa.array(member, type=pa.int64())})


def _htm_round(g: pa.Table, max_component: int | None) -> pa.Table:
    """One hash-to-min round for one node's group: dedup members,
    broadcast the min to every member, ship the member set to the min."""
    if g.num_rows == 0:
        return _EMPTY_CC
    node = g["node"][0].as_py()
    members = np.unique(g["member"].to_numpy(zero_copy_only=False))
    if max_component is not None and members.size > max_component:
        members = members[:max_component]  # documented truncation
    m = min(int(members[0]), node)
    # min -> every member (each member learns the candidate label) and
    # member set -> min (the min accumulates the component)
    out_node = np.concatenate([members, np.full(members.size, m, np.int64),
                               np.array([node], np.int64)])
    out_member = np.concatenate([np.full(members.size, m, np.int64),
                                 members, np.array([m], np.int64)])
    return pa.table({"node": pa.array(out_node, type=pa.int64()),
                     "member": pa.array(out_member, type=pa.int64())})


def _label_ds(state):
    """(node, member) state -> (node, component) via the NATIVE min
    aggregate (no Python per-group function). Every state row set for a
    node contains a label <= node (self rows at init; per-round (node,
    min) retention), so min(member) IS the component label."""
    lab = state.groupby("node").min("member")

    def rn(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["node"],
                         "component": b["min(member)"]})

    return lab.map_batches(rn, batch_format="pyarrow")


def connected_components(
    pairs,
    id_a: str = "id_a",
    id_b: str = "id_b",
    max_iters: int = 16,
    max_component: int | None = None,
):
    """Dataset(id_a, id_b) pair edges -> Dataset(node, component).

    ``component`` is the minimum node id reachable from ``node``; only
    nodes that appear in at least one pair are emitted (singletons are
    their own component by definition and never enter the exchange).

    Each iteration materializes only the (pair-graph-sized) message
    dataset — required for the convergence test and to stop Ray from
    re-executing the whole lineage chain per round; the corpus never
    enters this op.
    """
    state = pairs.map_batches(
        lambda b: _sym_edges(b, id_a, id_b), batch_format="pyarrow",
    ).materialize()
    prev_sig = None
    for _ in range(max_iters):
        state = state.groupby("node").map_groups(
            lambda g: _htm_round(g, max_component), batch_format="pyarrow",
        ).materialize()
        # summary-sized convergence probe: per-node labels only ever
        # DECREASE (each round retains the node's current min), so the
        # label sum is strictly monotone until the fixpoint — equality
        # means converged, no spurious stalls
        agg = _label_ds(state).aggregate(Sum("component"), Count())
        sig = (agg["sum(component)"], agg["count()"])
        if sig == prev_sig:
            break
        prev_sig = sig
    return _label_ds(state)


def near_dup_components(
    ds,
    col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    threshold: float = 0.5,
    method: str = "ngram_jaccard",
    max_iters: int = 16,
    **kw,
):
    """Corpus -> Dataset(node, component): near-dup clusters via the
    exact n-gram Jaccard pair graph (``method='ngram_jaccard'``, full
    recall) or the probabilistic minhash screen (``'minhash'``)."""
    from rayfts.ops import dedup as _d

    if method == "ngram_jaccard":
        pairs = _d.ngram_jaccard_pairs(ds, col=col, id_col=id_col, k=k,
                                       threshold=threshold, **kw)
    elif method == "minhash":
        pairs = _d.minhash_dedup_pairs(ds, col=col, id_col=id_col,
                                       threshold=threshold, **kw)
    else:
        raise ValueError(f"unknown method {method!r}")
    return connected_components(pairs, max_iters=max_iters)


def near_dup_kept_ids(
    ds,
    col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    threshold: float = 0.5,
    drop_broadcast_limit: int = 4_000_000,
    **kw,
):
    """Cluster-level dedup: Dataset(doc_id) of KEPT documents — every
    doc not in any near-dup pair, plus the minimum-id representative of
    each connected component (deterministic, the exact-dedup keep rule).

    Scale shape: the drop set (components minus their roots) is
    pair-graph-sized; the kept set is computed as corpus MINUS drop via
    the chunked-broadcast join-free semi-difference shared with
    :func:`rayfts.ops.clean.clean_corpus` (ids only — texts never move).
    """
    comp = near_dup_components(ds, col=col, id_col=id_col, k=k,
                               threshold=threshold, **kw)

    def drops(b: pa.Table) -> pa.Table:
        keep = pc.not_equal(b["node"], b["component"])
        return b.filter(keep).select(["node"]).rename_columns([id_col])

    drop_ds = comp.map_batches(drops, batch_format="pyarrow")
    from rayfts.ops.clean import _semi_difference

    return _semi_difference(ds.select_columns([id_col]), drop_ds, id_col,
                            id_col, drop_broadcast_limit)
