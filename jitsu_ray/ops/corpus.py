"""Training-corpus construction operators.

The steps an LLM-data pipeline runs between dedup/quality-filtering and
tokenization — beyond the reference's own inventory (SURVEY §2 covers
the CDC engine; these extend the LLM-data suite of ops/dedup, ops/text,
ops/similarity):

- ``hash_sample``: deterministic id-hash Bernoulli sampling — the
  reproducible holdout/downsample split. Pure per-batch filter: no RNG
  state, no shuffle, identical output at any cluster size or batch
  boundary, and exactly DuckDB's ``md5_number_lower(id) % mod`` so the
  split is SQL-auditable.
- ``chunk_documents``: fixed word-window chunking with overlap (the
  context-window packing precursor). A 1→N fan-out done in
  ``map_batches`` (a returned batch may hold more rows than its input —
  the flat-map shape without per-row Python tasks).
- ``top_k_per_group``: per-group top-k selection (best-k docs per
  language/domain/source). Per-batch partial top-k BEFORE the group
  shuffle, so the exchange carries at most k rows per (group, batch) —
  the same combiner discipline as the lake's LWW prep.
- ``exact_group_quantiles``: distribution QA (token-count / value
  percentiles per group), DuckDB quantile_disc rule.
- ``stratified_sample``: per-group rates over the hash_sample rule —
  the domain-mixing downsample.
"""

from __future__ import annotations

import hashlib

import polars as pl
import pyarrow as pa

from ..util import md5_lower64


def hash_sample(ds, id_col: str, rate_pct: int, mod: int = 100):
    """Keep rows where md5_lower64(str(id)) % mod < rate_pct.

    ``rate_pct``/``mod`` of the id space is kept (20/100 = a 20%
    sample); the complement selects the disjoint holdout. Stable under
    re-runs, repartitioning and row order by construction. The uniform
    case of ``stratified_sample`` (one shared filter implementation)."""
    return stratified_sample(
        ds, id_col, id_col, rates={}, default_pct=rate_pct, mod=mod
    )


def chunk_documents(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    chunk_words: int = 50,
    stride: int = 40,
):
    """Split each document's whitespace words into windows of
    ``chunk_words`` starting every ``stride`` words (overlap =
    chunk_words - stride). Emits (id, chunk_id, n_words, chunk_md5);
    empty/whitespace-only docs emit no rows. ``chunk_md5`` (hex md5 of
    the space-joined window) stands in for the chunk text so the fan-out
    rows stay narrow — the real pipeline would carry the text or token
    ids here."""
    if stride <= 0 or chunk_words <= 0:
        raise ValueError("chunk_words and stride must be positive")

    def chunker(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        out_id, out_cid, out_n, out_md5 = [], [], [], []
        for d, t in zip(ids, texts):
            words = (t or "").split()
            start = 0
            cid = 0
            while start < len(words):
                window = words[start : start + chunk_words]
                out_id.append(d)
                out_cid.append(cid)
                out_n.append(len(window))
                out_md5.append(hashlib.md5(" ".join(window).encode()).hexdigest())
                cid += 1
                start += stride
        return pa.table(
            {
                id_col: pa.array(out_id, batch.schema.field(id_col).type),
                "chunk_id": pa.array(out_cid, pa.int64()),
                "n_words": pa.array(out_n, pa.int64()),
                "chunk_md5": pa.array(out_md5, pa.string()),
            }
        )

    return ds.map_batches(chunker, batch_format="pyarrow")


def split_sentences(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    boundary: str = r"[.!?]+ ",
):
    """Sentence-level chunking — the 1→N fan-out between document
    cleaning and sentence-level dedup/packing. Splits each document on
    ``boundary`` (an ASCII-only regex, deliberately: Rust regex and
    RE2/DuckDB agree char-for-char on it — the shared-pattern
    discipline of ops/text) and emits one row per piece:

        (id, piece_id 1-based, sent_md5, n_chars)

    Pieces are NOT trimmed or empty-filtered: the SQL twin is exactly
    ``string_split_regex(coalesce(text,''), boundary)`` + subscripts,
    so an empty document yields one empty piece on both sides, and the
    delimiter itself is consumed. md5 of the piece stands in for the
    text (same narrow-row choice as chunk_documents).

    Vectorized: one polars replace_all(boundary -> NUL) + literal NUL
    split + explode per batch (documents containing a literal NUL
    would mis-split; parquet text columns don't). Fan-out rows stay
    inside their batch — no shuffle, no state."""
    from ..util import md5_hex_column

    def splitter(batch: pa.Table) -> pa.Table:
        # window over a per-ROW index, not id_col: the SQL twin's
        # subscripts restart per row, so a duplicate id must too
        df = pl.from_arrow(batch.select([id_col, text_col])).with_row_index("__r")
        out = (
            df.with_columns(
                pl.col(text_col)
                .fill_null("")
                .str.replace_all(boundary, "\x00")
                .str.split("\x00")
                .alias("__p")
            )
            .drop(text_col)
            .explode("__p")
            .with_columns(
                (pl.int_range(pl.len()).over("__r") + 1).alias("piece_id"),
                pl.col("__p").str.len_chars().cast(pl.Int64).alias("n_chars"),
            )
        )
        # for a single never-null string column md5_hex_column is
        # byte-identical to md5(piece): str() is identity, no sep joined
        md5s = md5_hex_column(out["__p"].to_arrow())
        return pa.table(
            {
                id_col: out[id_col].to_arrow().cast(batch.schema.field(id_col).type),
                "piece_id": out["piece_id"].cast(pl.Int64).to_arrow(),
                "sent_md5": md5s,
                "n_chars": out["n_chars"].to_arrow(),
            }
        )

    return ds.map_batches(splitter, batch_format="pyarrow")


def top_k_per_group(ds, group_col: str, k: int, sort_keys: list[tuple[str, bool]]):
    """Top-k rows per group, ordered by ``sort_keys`` [(col,
    descending), ...]. The tie-breaking order must be TOTAL (include a
    unique column last) for deterministic output."""
    cols = [c for c, _ in sort_keys]
    desc = [d for _, d in sort_keys]

    def partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = (
            # nulls_last: polars default puts null sort keys FIRST even
            # descending, which would let null-scored rows win the top-k;
            # DuckDB's ORDER BY ... DESC oracle defaults to NULLS LAST
            df.sort(cols, descending=desc, nulls_last=True)
            .group_by(group_col, maintain_order=True)
            .head(k)
        )
        # polars group_by().head() moves the group column FIRST; restore
        # the input order or the schema cast fails whenever group_col
        # isn't already the leading column
        return out.select(batch.column_names).to_arrow().cast(batch.schema)

    def final(group: pa.Table) -> pa.Table:
        return partial(group)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .map_groups(final, batch_format="pyarrow")
    )


def exact_group_quantiles(ds, group_col: str, value_col: str, qs: list[float],
                          interpolation: str = "disc"):
    """Exact quantiles per group — the distribution-QA step over token
    counts / event values. ``interpolation="disc"`` (default) follows
    DuckDB's quantile_disc rule (sorted[ceil(q*n)-1], output keeps the
    input dtype); ``"cont"`` follows quantile_cont / numpy linear
    interpolation (output float64). One groupby exchange co-locates
    each group; one sort per group. Bounded by the largest group's
    values; at group sizes where that breaks, swap in a mergeable
    sketch (t-digest/KLL) per batch with a final merge — approximate,
    which is why this exact form stays the oracle-checkable default."""
    import numpy as np

    if interpolation not in ("disc", "cont"):
        raise ValueError(f"interpolation must be 'disc' or 'cont', got {interpolation!r}")
    labels = [f"q{int(round(q * 100))}" for q in qs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"quantile labels collide after rounding: {labels}")

    def per_group(g: pa.Table) -> pa.Table:
        field = g.schema.field(value_col)
        out_type = pa.float64() if interpolation == "cont" else field.type
        # NULLs are ignored, as quantile_disc/_cont do
        col = g[value_col].combine_chunks().drop_null()
        vals = np.sort(col.to_numpy(zero_copy_only=False))
        n = len(vals)
        # slice (not pa.array([...as_py()])) keeps the group key's EXACT
        # input type: type inference would null-type a null key and
        # int64-widen an int32 one, diverging per-group output schemas
        # and crashing Ray's block unification (round-3 ADVICE)
        cols = {group_col: g[group_col].slice(0, 1).combine_chunks()}
        for q, label in zip(qs, labels):
            if n == 0:
                cols[label] = pa.nulls(1, out_type)
            elif interpolation == "cont":
                cols[label] = pa.array(
                    [float(np.quantile(vals, q, method="linear"))], out_type
                )
            else:
                idx = min(n - 1, max(0, int(np.ceil(q * n)) - 1))
                # preserve the input dtype — no silent float->int truncation
                cols[label] = pa.array([vals[idx].item()], out_type)
        return pa.table(cols)

    return ds.groupby(group_col).map_groups(per_group, batch_format="pyarrow")


def quantile_bucketize(
    ds,
    group_col: str,
    value_col: str,
    qs: list[float] = (0.25, 0.5, 0.75),
    out_col: str = "bucket",
):
    """Per-group quantile DISCRETIZATION — the feature-engineering step
    that turns a continuous column into per-group rank buckets (e.g.
    quartile labels per event type / token-count bands per language).

    Rule (shared exactly with the SQL twin): with per-group
    ``quantile_disc`` bounds b1..bk, a row's bucket is the count of
    bounds its value exceeds — 0..k. quantile_disc returns ACTUAL data
    values, so the comparisons are bit-exact across engines (no
    interpolation floats). Rows with a NULL value, or whose group has
    no non-null values (no bounds row), are dropped — mirroring the
    oracle's INNER JOIN + ``value IS NOT NULL``.

    Distributed shape: bounds come from the oracle-checked
    ``exact_group_quantiles`` (tiny per-group table, driver-folded,
    broadcast into the map); assignment is ONE vectorized pass —
    ``index_in`` group gather + a (rows x k) comparison sum. No
    shuffle beyond the quantile computation itself.

    NaN caveat (same as q_value_outliers; absent from the test
    tables): a NaN value is dropped here, while DuckDB keeps it
    (``IS NOT NULL`` passes) and its NaN-sorts-greatest comparison
    would assign the top bucket."""
    import numpy as np
    import pyarrow.compute as pc

    qs = list(qs)
    labels = [f"q{int(round(q * 100))}" for q in qs]
    # NULL group keys are dropped by the oracle's JOIN USING anyway —
    # drop them BEFORE the quantile groupby (Ray's sort-based group
    # shuffle can't order mixed None/str keys), and again from the
    # bounds (index_in would NULL-MATCH them — pc.is_in/index_in match
    # null to null, see ops/search.refresh_index_buckets)
    nonnull = ds.map_batches(
        lambda b: b.filter(pc.is_valid(b[group_col])), batch_format="pyarrow"
    )
    bounds = exact_group_quantiles(nonnull, group_col, value_col, qs).take_all()
    # all-null-value groups have no bounds row in the oracle (WHERE ..
    # GROUP BY drops them before the join)
    rows = [
        r for r in bounds
        if r[group_col] is not None and r[labels[0]] is not None
    ]
    groups = [r[group_col] for r in rows]
    # pin the key set to the INPUT's group dtype: list inference would
    # int64-widen an int32 key (the exact_group_quantiles trap) and
    # null-type an empty set, making every index_in raise
    gtype = ds.schema().base_schema.field(group_col).type
    keys = pa.array(groups, gtype)
    mat = np.asarray(
        [[float(r[lab]) for lab in labels] for r in rows],
        dtype=np.float64,
    ).reshape(len(groups), len(qs))

    def assign(batch: pa.Table) -> pa.Table:
        idx = (
            pc.fill_null(pc.index_in(batch[group_col], value_set=keys), -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        v = pc.cast(batch[value_col], pa.float64()).to_numpy(zero_copy_only=False)
        ok = (idx >= 0) & ~np.isnan(v)
        kept = batch.filter(pa.array(ok))
        b = (v[ok, None] > mat[idx[ok]]).sum(axis=1).astype(np.int64)
        return kept.append_column(out_col, pa.array(b, pa.int64()))

    return ds.map_batches(assign, batch_format="pyarrow")


def group_moments(ds, group_col: str, value_col: str):
    """Per-group count / mean / population variance with CROSS-ENGINE
    EXACT floats — the summary-statistics step that normally can't be
    oracle-checked because avg()/var_pop() sum floats in engine-specific
    order. The trick is the repo's integer-cents discipline one level
    up: the distributed pass accumulates only INTEGER moments

        n, s1 = sum(c), s2 = sum(c^2)     with c = floor(v*100 + 0.5)

    (order-independent integer adds), and the driver derives

        mean_c = s1 / n
        var_c  = s2 / n - (s1 / n)^2

    with ONE fixed float64 expression that the SQL twin repeats
    verbatim from the same integers — so the floats are bit-identical.
    NULL values are skipped (SQL ``WHERE v IS NOT NULL``); a NULL group
    key is its own group in SQL GROUP BY, but Ray's sort shuffle can't
    order mixed None keys, so null-group rows are dropped here and the
    oracle must filter them too (the established q_value_outliers rule).

    Shape: per-batch integer-moment partials (one row per group per
    batch — the combiner), one tiny Sum groupby, driver float derive.
    s2 in int64 holds ~1e18; polars and Arrow both WRAP int64 silently
    (measured: (c*c).sum() on ~3.1e9-cent values returns a negative
    number, pc.sum likewise), so the fold carries a float64 SHADOW of
    each integer moment and the driver raises OverflowError when the
    two diverge by > 2^60 — an int64 wrap shifts the value by a
    multiple of 2^64 while the float shadow's error is ~n*2^-53*|s|,
    orders of magnitude below the threshold for any true |s| < 2^63.
    At 100-TB row counts put ``value`` in smaller units or shard the
    fold; either way the overflow is loud, never silent."""
    import numpy as np
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum as _Sum

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch[group_col]), pc.is_valid(batch[value_col])
        )
        t = batch.filter(keep)
        cents = pc.cast(
            pc.floor(
                pc.add(
                    pc.multiply(pc.cast(t[value_col], pa.float64()), pa.scalar(100.0)),
                    pa.scalar(0.5),
                )
            ),
            pa.int64(),
        )
        df = pl.from_arrow(
            pa.table({group_col: t[group_col], "c": cents})
        ).group_by(group_col).agg(
            pl.len().cast(pl.Int64).alias("n"),
            pl.col("c").sum().cast(pl.Int64).alias("s1"),
            (pl.col("c") * pl.col("c")).sum().cast(pl.Int64).alias("s2"),
            # float64 shadows: wrap detectors for the int64 moments
            pl.col("c").cast(pl.Float64).sum().alias("s1f"),
            (pl.col("c").cast(pl.Float64) ** 2).sum().alias("s2f"),
        )
        return df.to_arrow().cast(
            pa.schema(
                [
                    (group_col, batch.schema.field(group_col).type),
                    ("n", pa.int64()),
                    ("s1", pa.int64()),
                    ("s2", pa.int64()),
                    ("s1f", pa.float64()),
                    ("s2f", pa.float64()),
                ]
            )
        )

    rows = sorted(
        (
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby(group_col)
            .aggregate(
                _Sum("n", alias_name="n"),
                _Sum("s1", alias_name="s1"),
                _Sum("s2", alias_name="s2"),
                _Sum("s1f", alias_name="s1f"),
                _Sum("s2f", alias_name="s2f"),
            )
            .take_all()
        ),
        key=lambda r: r[group_col],
    )
    for r in rows:
        for ic, fc in (("s1", "s1f"), ("s2", "s2f")):
            if abs(r[fc] - float(r[ic])) > 2.0**60:
                raise OverflowError(
                    f"group_moments: int64 {ic} wrapped for group "
                    f"{r[group_col]!r} (int fold {r[ic]}, float shadow "
                    f"{r[fc]:.3e}); rescale value_col to smaller units"
                )
    n = np.asarray([r["n"] for r in rows], dtype=np.float64)
    s1 = np.asarray([r["s1"] for r in rows], dtype=np.float64)
    s2 = np.asarray([r["s2"] for r in rows], dtype=np.float64)
    mean = s1 / n
    var = s2 / n - (s1 / n) * (s1 / n)
    gtype = ds.schema().base_schema.field(group_col).type
    return pa.table(
        {
            group_col: pa.array([r[group_col] for r in rows], gtype),
            "n": pa.array([int(r["n"]) for r in rows], pa.int64()),
            "mean_c": pa.array(mean, pa.float64()),
            "var_c": pa.array(var, pa.float64()),
        }
    )


def group_quantiles_auto(
    ds,
    group_col: str,
    value_col: str,
    qs: list[float],
    exact_group_limit: int = 2_000_000,
    capacity: int = 512,
    total_rows_hint: int | None = None,
):
    """Route per-group quantiles by the LARGEST group's row count
    (mirrors embedding_near_dup_auto's shape routing): at or under
    ``exact_group_limit`` -> ``exact_group_quantiles`` (oracle-exact,
    dtype-preserving; one group sorts on one worker); above it ->
    ``ops.sketch.sketch_group_quantiles`` (mergeable bounded-size
    summaries, rank error <= ~n_group/capacity, float64 output) so a
    skewed giant group never has to co-locate all its values.

    ``total_rows_hint`` — an UPPER BOUND on the input row count (e.g.
    parquet footer ``num_rows`` the caller already has from the read):
    no group can exceed the total, so a hint at or under the limit
    settles the routing for FREE. Without a settling hint the decision
    costs one extra counting pass over ``ds`` (per-block partial
    counts, tiny shuffle — measured ~0.7 s on a 100k-row sf0.1 input,
    i.e. the pass roughly doubles small-job wall time); callers that
    already know their group sizes should call the concrete operator
    directly."""
    if total_rows_hint is not None and total_rows_hint <= exact_group_limit:
        return exact_group_quantiles(ds, group_col, value_col, qs)
    from ray.data.aggregate import Count

    counts = ds.groupby(group_col).aggregate(Count(alias_name="__n")).take_all()
    max_n = max((r["__n"] for r in counts), default=0)
    if max_n <= exact_group_limit:
        return exact_group_quantiles(ds, group_col, value_col, qs)
    from .sketch import sketch_group_quantiles

    return sketch_group_quantiles(ds, group_col, value_col, qs, capacity=capacity)


def stratified_sample(
    ds, id_col: str, group_col: str, rates: dict, default_pct: int = 100, mod: int = 100
):
    """Per-group deterministic downsampling — the domain-mixing step of
    corpus assembly (keep 10% of crawl, 100% of books, ...). Same
    id-hash Bernoulli rule as hash_sample but the keep threshold comes
    from the row's group: md5_lower64(str(id)) % mod < rates.get(group,
    default_pct). Pure per-batch filter: reproducible, shuffle-free,
    SQL-auditable (CASE over md5_number_lower). md5 itself must stay
    (it IS the SQL-auditable split rule), but everything around it is
    batch-level: ids are stringified by ONE Arrow cast (no per-row
    ``str(v)``), the digests stream through ``np.fromiter`` over the
    raw utf-8 buffers, and the per-row group->rate lookup is one
    ``pc.index_in`` + numpy gather instead of a Python dict probe per
    row (round-3 verdict #4 — this filter sits on the hottest
    corpus-assembly path). Null ids are dropped; null groups take
    ``default_pct``."""
    import numpy as np
    import pyarrow.compute as pc

    def keep(batch: pa.Table) -> pa.Table:
        hv, null_mask = _md5_lower64_column(batch[id_col])
        # float64 thresholds: the pre-vectorization Python comparison
        # accepted fractional rates (25.5 kept hashes 0..25), and an
        # int64 cast would silently truncate them; exact for mod < 2^53
        thr = np.full(batch.num_rows, float(default_pct), dtype=np.float64)
        if rates:
            keys = pa.array(list(rates.keys()))
            idx = (
                pc.fill_null(pc.index_in(batch[group_col], value_set=keys), -1)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            vals = np.asarray(list(rates.values()), dtype=np.float64)
            hit = idx >= 0
            thr[hit] = vals[idx[hit]]
        mask = ~null_mask & ((hv % np.uint64(mod)).astype(np.float64) < thr)
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def mixture_sample(
    ds, id_col: str, group_col: str, weights_ppm: dict, budget_rows: int
):
    """Corpus MIXTURE assembly: downsample each group so the output
    approximates ``budget_rows`` rows at the target composition
    ``weights_ppm`` (parts-per-million per group value, e.g.
    ``{"en": 500_000, "zh": 200_000}``) — the domain-mixing step where
    the rates are DERIVED from target weights instead of hand-picked.

    Two stages: one tiny ``groupby(group).count()`` (small-side result,
    driver-folded), then the stratified_sample id-hash filter with
    per-group integer thresholds ``min(1e6, budget_rows * w_ppm //
    count)`` — PURE integer arithmetic so a DuckDB oracle reproduces the
    thresholds bit-exactly (float rate math would diverge in rounding).
    Groups absent from ``weights_ppm`` (including a null group) are
    dropped. Deterministic across runs, cluster sizes and batch
    boundaries (md5 split-rule family); groups smaller than their
    target keep everything (threshold capped at 1e6) — re-balancing
    mass onto under-full groups is a policy choice left to the caller.
    """
    if budget_rows < 0:
        raise ValueError("mixture_sample needs budget_rows >= 0")
    for g, w in weights_ppm.items():
        if not (0 <= int(w) <= 1_000_000):
            raise ValueError(f"weight for {g!r} must be in [0, 1e6] ppm")
    # the count pass scans ONLY the group column (column-pruned read),
    # deliberately NOT ds.materialize(): the input is corpus-sized and
    # pinning it for one tiny count is the wrong trade at scale —
    # callers whose ds has expensive upstream transforms (not a bare
    # projected read) should materialize before calling
    counts = {
        r[group_col]: r["count()"]
        for r in ds.select_columns([group_col]).groupby(group_col).count().take_all()
    }
    rates = {
        g: min(1_000_000, budget_rows * int(w) // counts[g])
        for g, w in weights_ppm.items()
        if g in counts and g is not None
    }
    return stratified_sample(
        ds, id_col, group_col, rates, default_pct=0, mod=1_000_000
    )


def cap_per_key(ds, key_col: str, id_col: str, k: int):
    """Per-key document cap — the hot-host/boilerplate-domain control
    of web-corpus assembly: keep at most ``k`` rows per ``key_col``,
    chosen DETERMINISTICALLY as the k smallest ``(md5_lower64(id),
    id)`` within the key, so the surviving set is a stable pseudo-random
    sample independent of row order, batch boundaries and cluster size
    (same md5 split-rule family as hash_sample; SQL twin:
    ``row_number() OVER (PARTITION BY key ORDER BY
    md5_number_lower(CAST(id AS VARCHAR)), id) <= k``).

    Shape: per-batch partial top-k (at most k rows per key leave each
    batch) + ONE key groupby — top_k_per_group's shape, with the hash
    as an ascending sort key. Null ids hash to NULL and sort last,
    exactly like the SQL twin's NULLS LAST."""
    if k < 1:
        # polars head(-1) would silently mean "all but the last row"
        raise ValueError("cap_per_key needs k >= 1")

    def with_hash(batch: pa.Table) -> pa.Table:
        # null slots already hash to 0 in hv; the mask makes them NULL
        hv, null_mask = _md5_lower64_column(batch[id_col])
        col = pa.array(hv, pa.uint64(), mask=null_mask)
        return batch.append_column("__cap_h", col)

    capped = top_k_per_group(
        ds.map_batches(with_hash, batch_format="pyarrow"),
        key_col,
        k,
        sort_keys=[("__cap_h", False), (id_col, False)],
    )
    return capped.drop_columns(["__cap_h"])


def weighted_sample(ds, id_col: str, weight_col: str, k: int):
    """Deterministic weighted sampling WITHOUT replacement, top-k of
    Efraimidis–Spirakis keys: key = u^(1/w) with u = (md5_lower64(id) +
    0.5) / 2^64 — inclusion probability proportional to weight, yet
    fully reproducible across runs, cluster sizes and batch boundaries
    (same md5 split-rule family as hash_sample) and SQL-auditable via
    ``pow((md5_number_lower(...) + 0.5)/2^64, 1.0/w)``.

    Distributed shape: per-batch vectorized key + partial top-k (at
    most k rows leave each batch), then a final sort+limit over the
    partials only — never a corpus-wide sort. Rows with a null id, or
    a null/non-positive weight, are excluded (they have no defined
    key). Ties are broken by id for a total order, but md5-spread keys
    make boundary ties vanishingly unlikely."""
    import numpy as np
    import pyarrow.compute as pc

    def key_and_partial(batch: pa.Table) -> pa.Table:
        hv, null_mask = _md5_lower64_column(batch[id_col])
        w = pc.fill_null(pc.cast(batch[weight_col], pa.float64()), 0.0)
        wv = w.combine_chunks().to_numpy(zero_copy_only=False)
        u = (hv.astype(np.float64) + 0.5) / 18446744073709551616.0
        with np.errstate(invalid="ignore", divide="ignore"):
            key = np.power(u, 1.0 / wv)
        keep = ~null_mask & (wv > 0)
        out = batch.append_column("__key", pa.array(key, pa.float64())).filter(
            pa.array(keep)
        )
        df = pl.from_arrow(out)
        return (
            df.sort(["__key", id_col], descending=True, nulls_last=True)
            .head(k)
            .to_arrow()
        )

    partials = ds.map_batches(key_and_partial, batch_format="pyarrow")
    return (
        partials.sort(["__key", id_col], descending=True)
        .limit(k)
        .drop_columns(["__key"])
    )


def assign_splits(
    ds, id_col: str, splits: list[tuple[str, int]], mod: int = 100
):
    """Deterministic train/val/test (or any k-way) split assignment —
    the one-pass labeling that every holdout protocol needs to be
    STABLE across re-runs, cluster sizes and row order. Appends a
    ``split`` string column chosen by the md5 id-hash rule shared with
    hash_sample / stratified_sample:

        bucket = md5_lower64(str(id)) % mod
        split  = first entry whose cumulative weight exceeds bucket

    ``splits`` is ordered ``[(name, weight), ...]`` and the weights
    must sum to exactly ``mod`` (total coverage — no silently dropped
    rows, no overlap). SQL twin: a CASE over ``md5_number_lower(CAST(id
    AS VARCHAR)) % mod`` with the same cumulative bounds, so the split
    is auditable and re-derivable anywhere. Rows with a NULL id are
    dropped (they have no defined bucket — same rule as hash_sample).

    Pure per-batch map (vectorized hash + one ``np.searchsorted``):
    no shuffle, no state, disjoint-and-exhaustive by construction."""
    import numpy as np

    if not splits:
        raise ValueError("assign_splits needs at least one split")
    weights = [int(w) for _, w in splits]
    if any(w <= 0 for w in weights):
        raise ValueError("split weights must be positive")
    if sum(weights) != mod:
        raise ValueError(
            f"split weights must sum to mod={mod}, got {sum(weights)}"
        )
    names = [str(n) for n, _ in splits]
    cum = np.cumsum(weights)  # bucket b -> first i with b < cum[i]
    labels = np.asarray(names, dtype=object)

    def tag(batch: pa.Table) -> pa.Table:
        hv, null_mask = _md5_lower64_column(batch[id_col])
        bucket = (hv % np.uint64(mod)).astype(np.int64)
        idx = np.searchsorted(cum, bucket, side="right")
        out = batch.append_column(
            "split", pa.array(labels[idx], pa.string())
        )
        return out.filter(pa.array(~null_mask))

    return ds.map_batches(tag, batch_format="pyarrow")


def global_shuffle_positions(
    ds, id_col: str, num_shards: int = 16, salt: str = "|shuffle"
):
    """DETERMINISTIC corpus-wide shuffle for training-data export: the
    final prep step before sharded serving, where row order must be
    pseudo-random yet byte-reproducible across re-runs, row order,
    batch boundaries and cluster sizes (``ds.random_shuffle`` is none
    of those). Every row gets

        shard = md5_lower64(str(id)) % num_shards
        pos   = 1-based rank of md5_lower64(str(id) + salt) inside
                its shard (id tiebreak — total order even under a
                64-bit hash collision)

    so the (shard, pos) layout is a pure function of the ids; a failed
    export rerun reproduces the exact same order, and the SQL twin
    (``row_number() OVER (PARTITION BY h % N ORDER BY h2, id)``) makes
    the shuffle auditable anywhere. The SALTED second hash decorrelates
    within-shard order from shard routing (unsalted, pos would be the
    rank of the same hash that chose the shard — a striped, not
    uniform, order). NULL ids are dropped (no defined bucket — the
    hash_sample / assign_splits rule).

    Shape: one vectorized per-batch tag (two md5 passes), ONE shuffle
    (groupby shard), per-shard sort in ``map_groups``. Each shard sorts
    on one worker: at 100 TB pick ``num_shards`` so a shard's (id,
    hash) rows fit a worker heap — rows are 24 bytes, so even 1e9-row
    shards sort comfortably; the payload itself is NOT shuffled, join
    it back by id or feed (shard, pos) to write_sharded_parquet-style
    writers."""
    import numpy as np
    import pyarrow.compute as pc

    if num_shards < 1:
        # numpy uint64 % 0 'returns' 0 with only a RuntimeWarning —
        # a valid-looking single-shard layout instead of an error
        raise ValueError("global_shuffle_positions needs num_shards >= 1")
    nshard = np.uint64(int(num_shards))

    def tag(batch: pa.Table) -> pa.Table:
        hv, null_mask = _md5_lower64_column(batch[id_col])
        keep = ~null_mask
        t = batch.select([id_col]).filter(pa.array(keep))
        c = t[id_col].combine_chunks() if isinstance(
            t[id_col], pa.ChunkedArray
        ) else t[id_col]
        salted = pc.binary_join_element_wise(
            _id_strings(c),
            pa.scalar(salt, pa.large_string()),
            pa.scalar("", pa.large_string()),
        )
        h2, _ = _md5_lower64_column(salted)
        return pa.table(
            {
                id_col: c,
                "shard": pa.array((hv[keep] % nshard).astype(np.int64)),
                "__h2": pa.array(h2),
            }
        )

    def order_group(g: pa.Table) -> pa.Table:
        df = pl.from_arrow(g).sort(["__h2", id_col])
        return pa.table(
            {
                id_col: df[id_col].to_arrow().cast(g.schema.field(id_col).type),
                "shard": df["shard"].to_arrow().cast(pa.int64()),
                "pos": pa.array(np.arange(1, df.height + 1, dtype=np.int64)),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(order_group, batch_format="pyarrow")
    )


def _id_strings(c: pa.Array) -> pa.Array:
    """Int or string ids as large_string, via one vectorized Arrow cast
    — identical to DuckDB ``CAST(v AS VARCHAR)`` and Python ``str`` for
    those types. Other id types (float, timestamp, ...) stringify
    differently across engines, so they raise TypeError."""
    import pyarrow.compute as pc

    t = c.type
    if not (pa.types.is_integer(t) or pa.types.is_string(t) or pa.types.is_large_string(t)):
        raise TypeError(f"id column must be an integer or string type, got {t}")
    return pc.cast(c, pa.large_string())


def _md5_lower64_column(col) -> tuple:
    """(lower-64-bit md5 of each value's canonical string as uint64,
    null mask). Exactly DuckDB's ``md5_number_lower(CAST(v AS
    VARCHAR))`` for int and string ids (``_id_strings``; other types
    raise TypeError). Null slots hash as 0 under a True null-mask
    bit."""
    import numpy as np
    import pyarrow.compute as pc

    c = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    null_mask = pc.is_null(c).to_numpy(zero_copy_only=False)
    blobs = pc.cast(_id_strings(c), pa.large_binary()).to_pylist()
    md5 = hashlib.md5
    from_bytes = int.from_bytes
    return (
        np.fromiter(
            (0 if b is None else from_bytes(md5(b).digest()[8:], "little") for b in blobs),
            dtype=np.uint64,
            count=len(blobs),
        ),
        null_mask,
    )


def exact_group_distinct(ds, group_col: str, value_col: str):
    """Exact per-group COUNT(DISTINCT value) — DuckDB
    ``COUNT(DISTINCT v)`` semantics (NULL values don't count; a NULL
    group is its own group), fully distributed:

      1. per-batch distinct (group, value) pairs — the combiner: the
         shuffle carries at most one row per pair per batch, never the
         raw rows;
      2. global pair distinct via ONE int-hash-shard groupby
         (ops/join.hash_shard_finalize — no multi-column key sort);
      3. per-shard per-group partial counts folded by a tiny Sum
         groupby (output is one row per group).

    Shuffle volume is bounded by the DISTINCT pair count; when that is
    itself corpus-scale, ``ops.sketch.sketch_group_distinct`` is the
    O(2^p)-state path (group_distinct_auto routes)."""
    import polars as pl

    from ray.data.aggregate import Sum

    from .join import hash_shard_finalize

    def pair_unique(tbl: pa.Table) -> pa.Table:
        # NULL-value pairs are KEPT here (one per group per batch) so a
        # group whose values are all NULL still reaches the count stage
        # — COUNT(DISTINCT v) returns (g, 0) for it, it doesn't vanish
        # (the count stage scores NULL pairs as 0)
        sel = tbl.select([group_col, value_col])
        return pl.from_arrow(sel).unique().to_arrow().cast(sel.schema)

    uniq = hash_shard_finalize(
        ds.map_batches(pair_unique, batch_format="pyarrow"),
        [group_col, value_col],
        pair_unique,
    )

    def count_partial(tbl: pa.Table) -> pa.Table:
        gtype = tbl.schema.field(group_col).type
        out = (
            pl.from_arrow(tbl.select([group_col, value_col]))
            .group_by(group_col)
            .agg(pl.col(value_col).is_not_null().sum().cast(pl.Int64).alias("n"))
        ).to_arrow()
        return out.select([group_col, "n"]).cast(
            pa.schema([(group_col, gtype), ("n", pa.int64())])
        )

    return (
        uniq.map_batches(count_partial, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(Sum("n", alias_name="n_distinct"))
    )


def group_distinct_auto(
    ds,
    group_col: str,
    value_col: str,
    exact_limit: int = 20_000_000,
    p: int = 12,
    total_rows_hint: int | None = None,
):
    """Route per-group distinct counts by input volume (the
    group_quantiles_auto shape): at or under ``exact_limit`` rows ->
    ``exact_group_distinct`` (oracle-exact; shuffle bounded by distinct
    pairs <= rows); above it -> ``ops.sketch.sketch_group_distinct``
    (O(2^p) state per group per batch, ~1.6% error at p=12). The row
    count bounds the distinct-pair count, so ``total_rows_hint`` (e.g.
    parquet footer num_rows) settles routing for free; without a hint
    one ``ds.count()`` pass decides."""
    n_rows = total_rows_hint if total_rows_hint is not None else ds.count()
    if n_rows <= exact_limit:
        return exact_group_distinct(ds, group_col, value_col)
    from .sketch import sketch_group_distinct

    return sketch_group_distinct(ds, group_col, value_col, p=p)


def pack_sequences(ds, id_col: str, size_col: str, budget: int,
                   num_shards: int = 32):
    """Greedy contiguous sequence packing — the context-window fill step
    between chunking and tokenization (docs are concatenated into packs
    of at most ``budget`` size units; a doc that would overflow starts a
    new pack; a doc larger than the budget gets its own pack).

    Packing is inherently sequential, so the parallel unit is a SHARD:
    docs are split by md5(id) % num_shards (the hash_sample family —
    SQL-auditable, stable across runs and cluster sizes), each shard
    packs its own docs in id order, and pack identity is (shard,
    pack_id). One groupby exchange; the per-shard fill loop runs over
    numpy int64 arrays (O(shard rows), parallel across shards — the
    sequential scan is the algorithm, not an accident). Exact SQL twin:
    a recursive CTE walking each shard in row order (SQL_PACK).

    Output: (id, size, shard, pack_id), sizes <= 0 are carried but never
    advance the fill. Deterministic at any batch/block layout."""
    import numpy as np
    import pyarrow.compute as pc

    if budget <= 0:
        raise ValueError("budget must be positive")

    def shard_col(batch: pa.Table) -> pa.Table:
        hv, null_mask = _md5_lower64_column(batch[id_col])
        sh = (hv % np.uint64(num_shards)).astype(np.int64)
        keep = batch.select([id_col, size_col]).append_column(
            "shard", pa.array(sh, pa.int64())
        )
        return keep.filter(pa.array(~null_mask))  # null ids are unpackable

    def pack_shard(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[(id_col, "ascending")])
        g = g.take(idx)
        sizes = pc.fill_null(
            pc.cast(g[size_col], pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        sizes = np.maximum(sizes, 0)  # null/negative sizes never advance fill
        packs = np.zeros(len(sizes), dtype=np.int64)
        fill = 0
        pack = 0
        for i, s in enumerate(sizes):
            if fill > 0 and fill + s > budget:
                pack += 1
                fill = 0
            packs[i] = pack
            fill += s
        return g.append_column("pack_id", pa.array(packs, pa.int64()))

    return (
        ds.map_batches(shard_col, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(pack_shard, batch_format="pyarrow")
    )
