"""Text-analysis operators for training-data pipelines: token counting,
quality scoring, language ID, document fingerprinting.

These extend the engine beyond the reference's operator set (which has
no text analytics) toward a 100 TB pre-training pipeline.

The hot path is ONE fused stage (``DocAnalyzer``): a single polars pass
computes every feature from one shared word-extraction, instead of
chaining three actor pools that each re-serialize the text column. All
feature definitions are chosen to have exact DuckDB-SQL equivalents
(md5-based hashes, integer-count ratios) so the driver oracle can check
them value-for-value.
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa
import pyarrow.compute as pc

from ..util import md5_lower64 as _md5_lower64

_STOPWORDS = {
    "en": {"the", "and", "of", "a", "to", "in", "is", "for", "on", "with", "that", "this"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "mit", "ein", "eine", "zu", "den"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "una", "los", "las", "por"},
    "fr": {"le", "la", "de", "et", "un", "une", "les", "des", "est", "dans", "pour"},
}

_FP_MOD = (1 << 61) - 1
_FP_BASE = 1_000_003


def rolling_fingerprint(text: str) -> int:
    """Order-sensitive rolling document fingerprint over whitespace
    tokens: h = fold(h * BASE + md5_lower64(tok)) mod 2^61-1, centered
    into int64. SQL twin: list_reduce over md5_number_lower with
    HUGEINT modular math (SQL_DOC_QUALITY)."""
    h = 0
    for tok in (text or "").split():
        h = (h * _FP_BASE + _md5_lower64(tok)) % _FP_MOD
    return h - (_FP_MOD if h > _FP_MOD // 2 else 0)


class DocAnalyzer:
    """Fused quality/langid/fingerprint/token-count stage — one polars
    pass per batch; word lists extracted once and shared by every
    feature. Use as `map_batches(DocAnalyzer, batch_format="pyarrow",
    concurrency=N)`. Pass ``features`` to compute only a subset —
    unrequested feature groups skip their extraction passes entirely.

    Output columns (exact SQL twins in queries.SQL_DOC_QUALITY):
      stopword_ratio   en-stopword hits / max(#[A-Za-z]+ words, 1)
      punct_ratio      #[^\\w\\s] chars / max(len(text), 1)
      mean_word_len    mean length of [A-Za-z]+ words (0.0 if none)
      n_bpe_tokens     #(\\w+|[^\\w\\s]) pre-tokenizer matches
      quality_ok       stopword_ratio > 0.01 AND punct_ratio < 0.3
      lang_pred        argmax lang of stopword votes over the first 200
                       [A-Za-zÀ-ÿ]+ words (ties -> later lang key;
                       zero votes -> 'und')
      fingerprint      rolling_fingerprint(text)
    """

    ALL = ("stopword_ratio", "punct_ratio", "mean_word_len", "n_bpe_tokens",
           "quality_ok", "lang_pred", "fingerprint")
    _QUALITY = {"stopword_ratio", "punct_ratio", "mean_word_len", "quality_ok"}

    def __init__(self, features: tuple[str, ...] | None = None):
        self.features = tuple(features) if features else self.ALL
        unknown = set(self.features) - set(self.ALL)
        if unknown:
            raise ValueError(f"unknown DocAnalyzer features: {unknown}")

    def __call__(self, batch: pa.Table) -> pa.Table:
        want = set(self.features)
        need_quality = bool(want & self._QUALITY)
        df = pl.from_arrow(pa.table({"text": batch["text"]})).with_columns(
            pl.col("text").fill_null("")
        )
        exprs = []
        if need_quality:
            exprs += [
                pl.col("text").str.extract_all(r"[A-Za-z]+").alias("__w"),
                pl.col("text").str.count_matches(r"[^\w\s]").cast(pl.Int64).alias("__np"),
                pl.col("text").str.len_chars().cast(pl.Int64).alias("__len"),
            ]
        if "lang_pred" in want:
            exprs.append(
                pl.col("text")
                .str.extract_all(r"[A-Za-zÀ-ÿ]+")
                .list.head(200)
                .list.eval(pl.element().str.to_lowercase())
                .alias("__lw")
            )
        if "n_bpe_tokens" in want:
            exprs.append(
                pl.col("text").str.count_matches(r"\w+|[^\w\s]").cast(pl.Int64).alias("n_bpe_tokens")
            )
        if exprs:
            df = df.with_columns(exprs)
        if need_quality:
            stop_en = sorted(_STOPWORDS["en"])
            df = df.with_columns(
                pl.col("__w").list.len().cast(pl.Int64).alias("__nw"),
                pl.col("__w")
                .list.eval(pl.element().str.to_lowercase().is_in(stop_en))
                .list.sum()
                .fill_null(0)
                .cast(pl.Int64)
                .alias("__stop"),
                pl.col("__w")
                .list.eval(pl.element().str.len_chars())
                .list.sum()
                .fill_null(0)
                .cast(pl.Int64)
                .alias("__wlen"),
            ).with_columns(
                (pl.col("__stop") / pl.max_horizontal(pl.col("__nw"), 1)).alias("stopword_ratio"),
                (pl.col("__np") / pl.max_horizontal(pl.col("__len"), 1)).alias("punct_ratio"),
                pl.when(pl.col("__nw") > 0)
                .then(pl.col("__wlen") / pl.col("__nw"))
                .otherwise(0.0)
                .alias("mean_word_len"),
            ).with_columns(
                ((pl.col("stopword_ratio") > 0.01) & (pl.col("punct_ratio") < 0.3)).alias("quality_ok")
            )
        if "lang_pred" in want:
            # language votes: one vectorized membership pass per language
            for lang in sorted(_STOPWORDS):
                df = df.with_columns(
                    pl.col("__lw")
                    .list.eval(pl.element().is_in(sorted(_STOPWORDS[lang])))
                    .list.sum()
                    .fill_null(0)
                    .cast(pl.Int64)
                    .alias(f"__s_{lang}")
                )
            # argmax with ties to the LATER language key: fold ascending,
            # replace on >=
            langs = sorted(_STOPWORDS)
            best_score = pl.col(f"__s_{langs[0]}")
            best_lang = pl.lit(langs[0])
            for lang in langs[1:]:
                s = pl.col(f"__s_{lang}")
                best_lang = pl.when(s >= best_score).then(pl.lit(lang)).otherwise(best_lang)
                best_score = pl.when(s >= best_score).then(s).otherwise(best_score)
            df = df.with_columns(
                pl.when(best_score > 0).then(best_lang).otherwise(pl.lit("und")).alias("lang_pred")
            )
        out_cols = [f for f in self.features if f != "fingerprint"]
        if out_cols:
            out = df.select(out_cols).to_arrow()
            for name in out.column_names:
                col = out[name]
                batch = batch.append_column(
                    name, col.cast(pa.string()) if col.type == pa.large_string() else col
                )
        if "fingerprint" in want:
            fp = pa.array(
                [rolling_fingerprint(t) for t in df["text"].to_list()], pa.int64()
            )
            batch = batch.append_column("fingerprint", fp)
        return batch


class RepetitionSignals:
    """Repetition-based quality signals (the MassiveText/Gopher family
    of filters, adapted to word level since the corpus docs are
    single-line):

      dup_word_frac     1 - distinct_words / words   (0.0 if no words)
      top_bigram_frac   count of the most frequent word bigram / total
                        bigrams                      (0.0 if < 2 words)
      repetition_ok     dup_word_frac <= max_dup AND
                        top_bigram_frac <= max_top_bigram

    One numpy pass per batch: all words flatten into one array, a
    lexsort groups (doc, word) / (doc, bigram) runs, and per-doc
    distinct / max-run counts come from reduceat over the doc
    boundaries — no per-row Python. Exact SQL twin in
    queries.SQL_REPETITION (list_distinct + bigram unnest)."""

    def __init__(self, max_dup: float = 0.9, max_top_bigram: float = 0.18,
                 text_col: str = "text"):
        self.max_dup = max_dup
        self.max_top = max_top_bigram
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        texts = batch[self.text_col].to_pylist()
        n = len(texts)
        words: list[str] = []
        counts = np.zeros(n, dtype=np.int64)
        for i, t in enumerate(texts):
            ws = (t or "").split()
            counts[i] = len(ws)
            words.extend(ws)
        dup = np.zeros(n, dtype=np.float64)
        top = np.zeros(n, dtype=np.float64)
        if words:
            doc = np.repeat(np.arange(n, dtype=np.int64), counts)
            _, codes = np.unique(np.asarray(words, dtype=object),
                                 return_inverse=True)
            # distinct words per doc: runs of equal (doc, code)
            order = np.lexsort((codes, doc))
            d_s, c_s = doc[order], codes[order]
            new_run = np.ones(len(d_s), dtype=bool)
            new_run[1:] = (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1])
            nd = np.bincount(d_s[new_run], minlength=n)
            has = counts > 0
            dup[has] = 1.0 - nd[has] / counts[has]
            # bigrams: adjacent word pairs inside one doc
            L = len(codes) - 1
            if L > 0:
                valid = doc[:L] == doc[1:]
                b_doc, b1, b2 = doc[:L][valid], codes[:L][valid], codes[1:][valid]
                if len(b_doc):
                    order = np.lexsort((b2, b1, b_doc))
                    d_s, b1s, b2s = b_doc[order], b1[order], b2[order]
                    new_run = np.ones(len(d_s), dtype=bool)
                    new_run[1:] = (
                        (d_s[1:] != d_s[:-1]) | (b1s[1:] != b1s[:-1]) | (b2s[1:] != b2s[:-1])
                    )
                    starts = np.nonzero(new_run)[0]
                    run_len = np.diff(np.append(starts, len(d_s)))
                    run_doc = d_s[starts]
                    max_run = np.zeros(n, dtype=np.int64)
                    np.maximum.at(max_run, run_doc, run_len)
                    nb = np.maximum(counts - 1, 0)
                    hasb = nb > 0
                    top[hasb] = max_run[hasb] / nb[hasb]
        ok = (dup <= self.max_dup) & (top <= self.max_top)
        return (
            batch.append_column("dup_word_frac", pa.array(dup))
            .append_column("top_bigram_frac", pa.array(top))
            .append_column("repetition_ok", pa.array(ok))
        )


class TextStats:
    """Vectorized length/token stats. n_tokens is defined as
    count(' ') + 1 — a spec shared with the SQL oracle so both sides
    compute the identical quantity."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch["text"]
        n_chars = pc.cast(pc.utf8_length(text), pa.int64())
        n_tokens = pc.cast(
            pc.add(pc.count_substring(pc.cast(text, pa.string()), " "), 1), pa.int64()
        )
        batch = batch.append_column("n_chars2", n_chars)
        return batch.append_column("n_tokens", n_tokens)


# text-level PII patterns, applied IN ORDER (each later pattern sees the
# earlier replacements): the order matters — emails first so the ipv4
# rule can't eat a dotted local-part, phone last so it can't split an
# address. Patterns are written in RE2 form (the DuckDB-oracle side):
# no backrefs, no lookaround, EXPLICIT [0-9] classes (Rust \d is
# Unicode, RE2's is ASCII — divergent on e.g. Arabic-Indic digits).
# The one construct the engines read differently is \b (Rust: Unicode
# word boundary; RE2: always ASCII) — _rust_regex wraps it in Rust's
# ASCII-mode group so polars' replace_all and DuckDB's regexp_replace
# produce byte-identical output on NON-ASCII text too; verified
# char-for-char in tests/test_ops.py::test_pii_redactor_duckdb_parity
# over adversarial cases (nested dots, 999.999.* pseudo-IPs, adjacent
# matches, Unicode digits/letters at match boundaries).
PII_PATTERNS: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ipv4", r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b", "<IP>"),
    ("phone", r"\+[0-9]{9,15}", "<PHONE>"),
)


def _rust_regex(pat: str) -> str:
    """RE2-form pattern -> Rust-regex form: force ASCII \\b (Rust's
    default is the Unicode word boundary; RE2's is always ASCII)."""
    return pat.replace(r"\b", r"(?-u:\b)")


class PiiRedactor:
    """Text-level PII redaction — the corpus-side complement to the
    field-level PII sha256 hashing (M9, stages/enrich.py): training text
    must not carry raw emails / IPs / phone numbers even when no schema
    field is marked PII. Reference has no text analytics; this follows
    the public CCNet/Dolma-style scrubbing recipe.

    One polars pass per batch: for each (name, pattern, token) rule, a
    vectorized ``count_matches`` over the CURRENT text (so ``n_<name>``
    counts what this rule actually redacted) then ``replace_all``; rules
    chain in PII_PATTERNS order. Appends:

      text_redacted  the scrubbed text (null text stays null)
      n_<name>       int64 match count per rule (null for null text)
      pii_found      any rule matched (null for null text)

    Stateless and shuffle-free — scales as a plain map_batches stage;
    pass ``concurrency=N`` at the call site for an actor pool when the
    rule list grows expensive."""

    def __init__(
        self,
        text_col: str = "text",
        patterns: tuple[tuple[str, str, str], ...] = PII_PATTERNS,
    ):
        if not patterns:
            raise ValueError("PiiRedactor needs at least one (name, pattern, token) rule")
        self.text_col = text_col
        self.patterns = tuple(patterns)

    def __call__(self, batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(pa.table({"__t": batch[self.text_col]}))
        for name, pat, tok in self.patterns:
            rp = _rust_regex(pat)
            df = df.with_columns(
                pl.col("__t").str.count_matches(rp).cast(pl.Int64).alias(f"n_{name}"),
                pl.col("__t").str.replace_all(rp, tok).alias("__t"),
            )
        total = pl.sum_horizontal(pl.col(f"n_{n}") for n, _, _ in self.patterns)
        # sum_horizontal skips nulls -> 0; null text must stay null
        df = df.with_columns(
            pl.when(pl.col("__t").is_null())
            .then(None)
            .otherwise(total > 0)
            .alias("pii_found")
        )
        out = df.to_arrow()
        red = out["__t"]
        if red.type == pa.large_string():
            red = red.cast(pa.string())
        batch = batch.append_column("text_redacted", red)
        for name, _, _ in self.patterns:
            batch = batch.append_column(f"n_{name}", out[f"n_{name}"])
        return batch.append_column("pii_found", out["pii_found"])


def normalize_text(ds, text_col: str, out_col: str = "norm_text",
                   lowercase: bool = True):
    """Unicode text normalization — the canonical pre-shingling step of
    every dedup recipe (minhash/simhash/ngram shingles over raw text
    treat 'Cafe\\u0301' and precomposed 'Café', or runs of whitespace,
    as different documents): NFC-normalize, collapse ASCII-whitespace
    runs to one space, strip leading/trailing spaces, and (by default)
    full-Unicode lowercase. One fused polars pass per batch; nulls stay
    null. No shuffle, no state.

    Implementation notes (both measured, not theoretical):
    - NFC runs through polars ``str.normalize`` because this container's
      pyarrow 16.1 ``utf8_normalize`` DECOMPOSES for every form (NFC
      behaves as NFD — 'é' comes back as 'e'+U+0301), which would make
      the oracle pass only on ASCII data.
    - the whitespace class is the explicit ``[ \\t\\n\\f\\r\\v]+``:
      Rust regex ``\\s`` is Unicode-aware (U+00A0 ...) while RE2's is
      ASCII-only, so a bare ``\\s`` would silently diverge from the SQL
      twin on exotic spaces.

    ``lowercase`` uses the Unicode FULL case mapping (polars/Python
    semantics, e.g. U+0130 'İ' -> 'i' + combining dot); SQL engines'
    ``lower()`` typically applies the SIMPLE mapping ('İ' -> 'i'), so
    only the lowercase=False form has a char-for-char SQL oracle twin
    (DuckDB ``trim(regexp_replace(nfc_normalize(x), '[ \\t\\n\\f\\r\\v]+',
    ' ', 'g'), ' ')`` — the EXPLICIT space charset: bare ``trim()`` is
    Unicode-aware and also strips NBSP/U+3000, where polars
    ``strip_chars(" ")`` strips ASCII space only) — which is why the
    oracle-checked query pins
    lowercase=False and the full-mapping path is pinned by pytest."""
    def run(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch[text_col].combine_chunks())
        s = s.str.normalize("NFC")
        if lowercase:
            s = s.str.to_lowercase()
        s = s.str.replace_all(r"[ \t\n\f\r\v]+", " ").str.strip_chars(" ")
        arr = s.to_arrow()
        if arr.type != pa.string():
            arr = arr.cast(pa.string())
        return batch.append_column(out_col, arr)

    return ds.map_batches(run, batch_format="pyarrow")


# (group, line) composite broadcast key. U+001F cannot appear in the
# corpus line derivation used by the oracle-checked query (word-soup
# text split on a literal separator); the generic operator documents
# the no-US-in-group/line assumption in strip_repeated_lines below.
_LINE_KEY_SEP = "\x1f"


def _partial_line_doc_counts(
    id_col: str, group_col: str, text_col: str, line_sep: str
):
    """Per-batch combiner for strip_repeated_lines pass 1: explode each
    document into lines, dedupe (group, line, doc) WITHIN the batch
    (a doc never spans batches — one row per doc), and emit one
    (key, n) partial per distinct line. Partials sum exactly to
    count(DISTINCT doc_id) because doc_ids are globally unique; NULL-id
    rows are excluded from COUNTING (SQL count(DISTINCT) semantics —
    otherwise two null-id docs in one batch collapse to one vote but
    two votes across batches, a batch-boundary-dependent result). They
    still get cleaned in pass 2 like any other row."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select([id_col, group_col, text_col]))
        out = (
            df.filter(pl.col(id_col).is_not_null())
            .select(
                pl.col(id_col),
                pl.col(group_col).fill_null("").alias("__g"),
                pl.col(text_col).fill_null("").str.split(line_sep).alias("__line"),
            )
            .explode("__line")
            .unique(["__g", "__line", id_col])
            .group_by("__g", "__line")
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .select(
                (pl.col("__g") + pl.lit(_LINE_KEY_SEP) + pl.col("__line")).alias("key"),
                "n",
            )
        )
        return out.to_arrow()

    return partial


def strip_repeated_lines(
    ds,
    text_col: str = "text",
    group_col: str = "source",
    id_col: str = "doc_id",
    line_sep: str = "\n",
    min_docs: int = 2,
    out_col: str = "clean_text",
    max_broadcast_bytes: int = 64 << 20,
):
    """Line-level boilerplate removal (the C4 / RefinedWeb cleaning
    rule): within each ``group_col`` partition (site / crawl source), a
    line that appears in >= ``min_docs`` DISTINCT documents is
    boilerplate (nav bars, cookie banners, footers) and is stripped
    from every document; the survivors are re-joined with ``line_sep``
    in their original order. Returns one row per input document:
    (id_col, out_col, removed) — documents whose every line was
    boilerplate keep their row with an empty string.

    Distributed shape (two passes, one narrow shuffle):
      pass 1 — map_batches combiner emits per-batch (group+line -> n
        distinct docs) partials (exact: doc rows never span batches),
        then ONE groupby-sum over the line keys; only keys crossing
        ``min_docs`` leave the fold — by construction the small tail
        of the line-frequency distribution (true boilerplate), not the
        corpus. Broadcast once via ray.put under a
        ``max_broadcast_bytes`` guard (same 64 MB bar as the
        recognition/jaccard broadcasts); above it raise with guidance
        rather than silently shipping per task.
      pass 2 — map_batches strip: split once, explode with a row
        index, anti-filter against the broadcast key set (polars
        ``is_in`` hash probe), re-join per row index with
        maintain_order='left' (polars join does NOT keep left order by
        default — CLAUDE.md trap).

    Oracle twin notes: composite key is group + U+001F + line, so
    group/line values must not contain U+001F (the SQL side anti-joins
    on the (g, line) pair directly); split semantics are leftmost
    non-overlapping literal — measured identical across polars
    ``str.split``, Python ``str.split`` and DuckDB ``string_split``,
    including '' -> [''] and ' a ' -> ['', ''].
    """
    import ray
    import pyarrow.compute as _pc

    from ray.data.aggregate import Sum

    from ..util import once_per_process

    if min_docs < 2:
        raise ValueError(
            "strip_repeated_lines needs min_docs >= 2 — at 1 every line "
            "is 'repeated' (it appears in its own document) and the whole "
            "corpus would be stripped"
        )
    if out_col in (id_col, "removed"):
        raise ValueError(
            f"out_col {out_col!r} collides with an output column"
        )

    partials = ds.map_batches(
        _partial_line_doc_counts(id_col, group_col, text_col, line_sep),
        batch_format="pyarrow",
    )
    agg = partials.groupby("key").aggregate(Sum("n", alias_name="n"))
    freq = agg.map_batches(
        lambda b: b.filter(_pc.greater_equal(b["n"], pa.scalar(min_docs, pa.int64()))),
        batch_format="pyarrow",
    )
    from ..util import fold_broadcast_keys

    keys = fold_broadcast_keys(
        freq,
        "key",
        max_broadcast_bytes,
        "boilerplate key set",
        hint="raise min_docs or max_broadcast_bytes — a set this large "
        "means the threshold is catching corpus body text, not boilerplate",
    )
    boiler_ref = ray.put(keys)

    def strip(batch: pa.Table) -> pa.Table:
        boiler = once_per_process(
            "text.strip_repeated_lines", boiler_ref,
            build=lambda ks: pl.Series("k", ks, dtype=pl.String),
        )
        df = (
            pl.from_arrow(batch.select([id_col, group_col, text_col]))
            .with_row_index("__i")
            .with_columns(
                __g=pl.col(group_col).fill_null(""),
                __parts=pl.col(text_col).fill_null("").str.split(line_sep),
            )
            .with_columns(__n0=pl.col("__parts").list.len().cast(pl.Int64))
        )
        kept = (
            df.select("__i", "__g", "__parts")
            .explode("__parts")
            .filter(
                ~(pl.col("__g") + pl.lit(_LINE_KEY_SEP) + pl.col("__parts")).is_in(
                    boiler
                )
            )
            .group_by("__i", maintain_order=True)
            .agg(
                # internal name: aliasing out_col HERE would collide
                # with a same-named input column after the join (polars
                # suffixes it _right and the select silently returns
                # the ORIGINAL text — review-found)
                pl.col("__parts").str.join(line_sep).alias("__cleaned"),
                pl.len().cast(pl.Int64).alias("__nk"),
            )
        )
        res = df.join(kept, on="__i", how="left", maintain_order="left")
        out = res.select(
            pl.col(id_col),
            pl.col("__cleaned").fill_null("").cast(pl.String).alias(out_col),
            (pl.col("__n0") - pl.col("__nk").fill_null(0)).alias("removed"),
        )
        return out.to_arrow()

    return ds.map_batches(strip, batch_format="pyarrow")
