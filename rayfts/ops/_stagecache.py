"""Run a cheap-constructor stage class as a STATELESS task-pool
``map_batches`` fn with one cached instance per worker process.

Short stages (tens of batches) pay an autoscaling actor pool mostly in
ramp-up, and a fixed pool of ``num_cpus`` actors reserves every CPU and
starves the upstream read tasks; a task pool sidesteps both while this
module-level cache keeps per-process state (token/stem caches, compiled
plans) exactly as warm as an actor would. Use ONLY for stages whose
``__init__`` is cheap and whose state is a pure memo — stages holding
real resources (index readers, codecs, models) stay actor pools.

The cache holds ONE instance per class, replaced when the constructor
kwargs change: stages of one class run sequentially within a pipeline
(pre-aggregations are materialized between them), and a keyed unbounded
cache would keep every past run's instance alive for the life of the
worker.

Usage::

    ds.map_batches(call_cached,
                   fn_kwargs={"_cls": TokenizeFragments, "col": ..., ...},
                   batch_format="pyarrow", batch_size=4096)

Constructor kwargs must be hashable (str/int/bool), which every call
site here satisfies.
"""

from __future__ import annotations

_INSTANCES: dict = {}


def call_cached(batch, _cls, **kwargs):
    key = tuple(sorted(kwargs.items()))
    cur = _INSTANCES.get(_cls)
    if cur is None or cur[0] != key:
        cur = (key, _cls(**kwargs))
        _INSTANCES[_cls] = cur
    return cur[1](batch)
