"""Text-analysis pipelines over the ``documents`` table (Ray-Data-native).

Language-ID, quality scoring, token counting and fingerprinting as
``map_batches`` stages, vectorized with pyarrow.compute + numpy (token lists
via ``utf8_split_whitespace``; per-row sums via ``np.add.reduceat`` over list
offsets — no per-row Python in the hot paths except md5, which is per-row by
nature).

Every function here has an exactly-matching DuckDB SQL oracle in
``__ray_entry__.oracle_sql`` (hence explicit rounding and ``\\S+`` token
semantics).
"""
from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .functions.num import round_away
from .functions.tables import agg_named
from .functions.textproc import LANG_ORDER, STOPWORDS


def _token_lists(text: pa.ChunkedArray):
    """-> (flat non-empty-token mask applied values, reduceat offsets).

    Splitting on whitespace can yield empty strings at the edges; they are
    masked out so counts match the ``\\S+`` definition.
    """
    toks = pc.utf8_split_whitespace(text.combine_chunks() if isinstance(text, pa.ChunkedArray) else text)
    toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    offsets = toks.offsets.to_numpy(zero_copy_only=False)
    values = toks.values
    nonempty = pc.not_equal(pc.utf8_length(values), 0).to_numpy(zero_copy_only=False)
    return values, offsets, nonempty


def _per_row_sum(flags: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    n = len(offsets) - 1
    out = np.zeros(n, dtype=np.int64)
    if len(flags) == 0:
        return out
    # reduceat over NON-EMPTY rows only: their start offsets are strictly
    # increasing and in range, so each segment sums exactly — clamping
    # instead would steal the last element from the final non-empty row
    # whenever trailing rows are empty
    nonempty = offsets[:-1] != offsets[1:]
    out[nonempty] = np.add.reduceat(
        flags.astype(np.int64), offsets[:-1][nonempty]
    )
    return out


def _removed_len(text, pattern: str) -> pa.Array:
    """Number of chars matching ``pattern`` = len(text) - len(text \\ pattern)."""
    return pc.subtract(
        pc.utf8_length(text),
        pc.utf8_length(pc.replace_substring_regex(text, pattern, "")),
    )


def token_count_batch(batch: pa.Table) -> pa.Table:
    n = pc.count_substring_regex(batch["text"], r"\S+")
    return pa.Table.from_arrays(
        [batch["doc_id"], pc.cast(n, pa.int64())], names=["doc_id", "n_tokens"]
    )


def quality_batch(batch: pa.Table) -> pa.Table:
    text = batch["text"].combine_chunks()
    n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.float64)
    n_tokens = (
        pc.count_substring_regex(text, r"\S+").to_numpy(zero_copy_only=False).astype(np.int64)
    )
    alpha = _removed_len(text, "[A-Za-z]").to_numpy(zero_copy_only=False)
    digit = _removed_len(text, "[0-9]").to_numpy(zero_copy_only=False)
    # non-whitespace chars = total - whitespace (matched-char count)
    nonws = n_chars - _removed_len(text, r"\s").to_numpy(zero_copy_only=False)
    values, offsets, nonempty = _token_lists(text)
    low = pc.utf8_lower(values)
    sw = pc.is_in(low, value_set=pa.array(STOPWORDS["en"])).to_numpy(
        zero_copy_only=False
    )
    sw_counts = _per_row_sum(sw & nonempty, offsets)
    safe_nt = np.maximum(n_tokens, 1)
    safe_nc = np.maximum(n_chars, 1)
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "n_chars": n_chars.astype(np.int64),
            "n_tokens": n_tokens,
            "mean_token_len": round_away(nonws / safe_nt, 6),
            "alpha_ratio": round_away(alpha / safe_nc, 6),
            "digit_ratio": round_away(digit / safe_nc, 6),
            "stopword_ratio": round_away(sw_counts / safe_nt, 6),
        }
    )


def lang_id_batch(batch: pa.Table) -> pa.Table:
    text = batch["text"].combine_chunks()
    n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False)
    cjk = _removed_len(text, "[一-鿿]").to_numpy(zero_copy_only=False)
    values, offsets, nonempty = _token_lists(text)
    low = pc.utf8_lower(values)
    counts = np.stack(
        [
            _per_row_sum(
                pc.is_in(low, value_set=pa.array(STOPWORDS[lang])).to_numpy(
                    zero_copy_only=False
                )
                & nonempty,
                offsets,
            )
            for lang in LANG_ORDER
        ]
    )  # (L, N)
    best = counts.max(axis=0)
    # first language (LANG_ORDER) achieving the max — deterministic tie-break
    pick = (counts == best[None, :]).argmax(axis=0)
    langs = np.array(LANG_ORDER, dtype=object)[pick]
    langs = np.where(best == 0, "und", langs)
    langs = np.where(cjk > 0.2 * np.maximum(n_chars, 1), "zh", langs)
    return pa.Table.from_pydict(
        {"doc_id": batch["doc_id"], "lang_pred": langs.astype(str)}
    )


def readability_batch(batch: pa.Table) -> pa.Table:
    """Flesch reading-ease per document (public formula: 206.835 -
    1.015·words/sentences - 84.6·syllables/words), with the standard
    cheap approximations — sentences = '.!?' marks, syllables = vowel
    groups — one vectorized Arrow pass. Used as a fluency prior in
    curation stacks alongside :func:`quality_batch`/:func:`gopher_rules_batch`
    (garbled or keyword-stuffed text scores far negative)."""
    from .functions.num import round_away

    text = batch["text"].combine_chunks() if isinstance(
        batch["text"], pa.ChunkedArray
    ) else batch["text"]
    n_words = np.asarray(
        pc.count_substring_regex(text, r"\S+"), dtype=np.int64
    )
    n_sent = np.asarray(
        pc.count_substring_regex(text, r"[.!?]"), dtype=np.int64
    )
    n_syll = np.asarray(
        pc.count_substring_regex(text, r"[aeiouyAEIOUY]+"), dtype=np.int64
    )
    w = np.maximum(n_words, 1)
    s = np.maximum(n_sent, 1)
    flesch = 206.835 - 1.015 * (w / s) - 84.6 * (n_syll / w)
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "n_words": pa.array(n_words, pa.int64()),
            "n_sentences": pa.array(n_sent, pa.int64()),
            "n_syllables": pa.array(n_syll, pa.int64()),
            "flesch": pa.array(round_away(flesch, 6), pa.float64()),
        }
    )


def gopher_rules_batch(batch: pa.Table, min_tokens: int = 50,
                       max_tokens: int = 100_000) -> pa.Table:
    """Gopher-style document rule gate (Rae et al. 2021, table A1 — public
    heuristics), one vectorized Arrow pass, no Python loops:

    - token count in [min_tokens, max_tokens]
    - mean token length in [3, 10]
    - symbol-to-token ratio ('#' chars + '...' runs) <= 0.1
    - lines starting with a bullet ('- ' / '* ') <= 90%
    - lines ending with '...' <= 30%
    - >= 2 English stopword hits

    Emits every signal plus the combined ``pass`` flag so downstream
    gates can re-weight individual rules without recomputing."""
    text = batch["text"].combine_chunks() if isinstance(
        batch["text"], pa.ChunkedArray
    ) else batch["text"]
    values, offsets, nonempty = _token_lists(text)
    n_tok = _per_row_sum(nonempty, offsets)
    tok_chars = _per_row_sum(
        pc.utf8_length(values).to_numpy(zero_copy_only=False) * nonempty, offsets
    )
    mean_len = tok_chars / np.maximum(n_tok, 1)
    n_hash = np.asarray(pc.count_substring(text, "#"), dtype=np.int64)
    n_ell = np.asarray(pc.count_substring(text, "..."), dtype=np.int64)
    symbol_ratio = (n_hash + n_ell) / np.maximum(n_tok, 1)
    low = pc.utf8_lower(values)
    n_stop = _per_row_sum(
        pc.is_in(low, value_set=pa.array(STOPWORDS["en"])).to_numpy(
            zero_copy_only=False
        )
        & nonempty,
        offsets,
    )
    lines = pc.split_pattern(text, "\n")
    lvals = pc.utf8_trim(lines.values, " ")
    loff = lines.offsets.to_numpy(zero_copy_only=False)
    ones = np.ones(len(lvals), dtype=bool)
    n_lines = _per_row_sum(ones, loff)
    bullet = (
        pc.starts_with(lvals, "- ").to_numpy(zero_copy_only=False)
        | pc.starts_with(lvals, "* ").to_numpy(zero_copy_only=False)
    )
    ell_line = pc.ends_with(lvals, "...").to_numpy(zero_copy_only=False)
    bullet_ratio = _per_row_sum(bullet, loff) / np.maximum(n_lines, 1)
    ellipsis_ratio = _per_row_sum(ell_line, loff) / np.maximum(n_lines, 1)
    ok = (
        (n_tok >= min_tokens) & (n_tok <= max_tokens)
        & (mean_len >= 3) & (mean_len <= 10)
        & (symbol_ratio <= 0.1)
        & (bullet_ratio <= 0.9)
        & (ellipsis_ratio <= 0.3)
        & (n_stop >= 2)
    )
    from .functions.num import round_away

    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tok, pa.int64()),
            "mean_len": pa.array(round_away(mean_len, 6), pa.float64()),
            "symbol_ratio": pa.array(round_away(symbol_ratio, 6), pa.float64()),
            "bullet_ratio": pa.array(round_away(bullet_ratio, 6), pa.float64()),
            "ellipsis_ratio": pa.array(
                round_away(ellipsis_ratio, 6), pa.float64()
            ),
            "n_stop": pa.array(n_stop, pa.int64()),
            "pass": pa.array(ok),
        }
    )


def lang_confusion(docs_ds):
    """Declared-vs-detected language confusion matrix — the metadata
    validation step of a curation run: a source whose declared ``lang``
    tag disagrees with the n-gram detector (:func:`lang_id_batch`) is
    mislabelled upstream, and mixture recipes keyed on the tag
    (:func:`my_ocr_ray.corpus.mix_strata`) silently skew.

    Shape: the detector runs map-side, each block emits partial
    (declared, predicted) counts via Arrow ``value_counts`` on a joined
    key, and the only exchange is the languages²-sized partial table."""

    def partial(batch: pa.Table) -> pa.Table:
        pred = lang_id_batch(batch)["lang_pred"]
        pred = pred.combine_chunks() if isinstance(pred, pa.ChunkedArray) else pred
        decl = batch["lang"]
        decl = decl.combine_chunks() if isinstance(decl, pa.ChunkedArray) else decl
        key = pc.binary_join_element_wise(decl, pred, "\x00")
        vc = key.value_counts()
        return pa.Table.from_pydict(
            {"key": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())}
        )

    empty = pa.Table.from_pydict(
        {
            "lang": pa.array([], pa.string()),
            "lang_pred": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        }
    )

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty
        g = batch.group_by("key").aggregate([("n", "sum")])
        key = g.column("key")
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
            if isinstance(key, pa.ChunkedArray):
                key = key.chunk(0)
        split = pc.split_pattern(key, "\x00")
        return pa.Table.from_pydict(
            {
                "lang": pc.list_element(split, 0),
                "lang_pred": pc.list_element(split, 1),
                "n": pc.cast(g.column("n_sum"), pa.int64()),
            }
        )

    return (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """md5 of lowercased whitespace-normalized text (per-row hashing)."""
    norm = pc.utf8_lower(
        pc.utf8_trim_whitespace(
            pc.replace_substring_regex(batch["text"], r"\s+", " ")
        )
    ).to_pylist()
    fps = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in norm]
    return pa.Table.from_pydict(
        {"doc_id": batch["doc_id"], "fp": pa.array(fps, pa.string())}
    )


def parse_events_props_batch(batch: pa.Table) -> pa.Table:
    """LineJsonParser analog (``mmocr/datasets/utils/parser.py:98-121``):
    project the ``k`` field out of the JSON ``props`` column, vectorized via
    regex extraction (the props schema is fixed)."""
    k = pc.extract_regex(batch["props"], r'"k":\s*(?P<k>-?\d+)')
    kv = pc.cast(pc.struct_field(k, "k"), pa.int64())
    return pa.Table.from_arrays(
        [batch["event_id"], batch["event_type"], kv],
        names=["event_id", "event_type", "k"],
    )


BPE_ISH_RE = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+"


def bpe_token_count_batch(batch: pa.Table, col: str = "text",
                          id_col: str = "doc_id") -> pa.Table:
    """GPT-2-style pre-tokenizer count: runs of letters / digits / other
    (optionally space-prefixed), the 'BPE-ish regex' token estimate. Both
    Arrow's ``count_substring_regex`` and DuckDB use RE2, so the oracle is
    engine-identical. Fully vectorized, no shuffle."""
    n = pc.count_substring_regex(batch[col].combine_chunks(), BPE_ISH_RE)
    return pa.Table.from_pydict(
        {
            id_col: batch[id_col],
            "n_bpe": pc.cast(n, pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# PII redaction (emails / IPv4 / phone-like numbers)
# ---------------------------------------------------------------------------

# RE2 syntax only (shared verbatim with the DuckDB oracle — both engines run
# RE2, so a shared pattern string is engine-identical). Applied IN ORDER:
# emails first so their digits can't be half-eaten by the phone rule.
PII_RULES: tuple[tuple[str, str], ...] = (
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    (r"\+?\d[\d() .-]{6,}\d", "<PHONE>"),
)


def redact_pii_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text redacted via the PII_RULES cascade, n_redactions).

    Fully vectorized: one ``count_substring_regex`` + one
    ``replace_substring_regex`` per rule per batch. Counting precedes each
    replacement, so later rules never double-count text a previous rule
    already masked."""
    text = batch["text"].combine_chunks()
    n = np.zeros(len(text), dtype=np.int64)
    for pattern, repl in PII_RULES:
        n += np.asarray(
            pc.count_substring_regex(text, pattern).fill_null(0), dtype=np.int64
        )
        text = pc.replace_substring_regex(text, pattern, repl)
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "text": text,
            "n_redactions": pa.array(n, pa.int64()),
        }
    )


def redact_pii(docs_ds):
    """Corpus-wide PII masking — pure map stage, zero exchange."""
    return docs_ds.map_batches(redact_pii_batch, batch_format="pyarrow")


def length_outliers(docs_ds, key: str = "lang", col: str = "n_chars",
                    z: float = 2.0):
    """Per-stratum z-score outlier documents: rows where
    ``|x - mean| > z * stddev_samp`` of their stratum.

    Two-phase moments: map-side (key, count, sum, sumsq) partials combine
    into a stratum-sized table (languages/domains — tiny), the resulting
    (mean, sd) dict broadcasts back into a pure filter map — the corpus is
    never exchanged. Strata with a single row have no sample stddev and
    emit nothing (mirrors ``stddev_samp`` NULL semantics)."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        ks = batch[key].combine_chunks() if isinstance(
            batch[key], pa.ChunkedArray) else batch[key]
        x = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        kv = np.asarray(ks.to_pylist(), dtype=object)
        uniq, inv = np.unique(kv, return_inverse=True)
        return pa.Table.from_pydict(
            {
                key: pa.array(uniq.tolist(), pa.string()),
                "c": pa.array(np.bincount(inv), pa.int64()),
                "s": pa.array(np.bincount(inv, weights=x), pa.float64()),
                "ss": pa.array(np.bincount(inv, weights=x * x), pa.float64()),
            }
        )

    pdf = docs_ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = pdf.groupby(key).sum()
    stats = {}
    for k, row in g.iterrows():
        c = int(row["c"])
        if c < 2:
            continue
        mean = row["s"] / c
        var = max(0.0, (row["ss"] - c * mean * mean) / (c - 1))
        stats[k] = (mean, z * np.sqrt(var))
    stats_ref = ray.put(stats)

    def flag(batch: pa.Table) -> pa.Table:
        st = ray.get(stats_ref)
        kv = np.asarray(batch[key].to_pylist(), dtype=object)
        x = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        means = np.array([st.get(k, (np.nan, np.inf))[0] for k in kv])
        cuts = np.array([st.get(k, (np.nan, np.inf))[1] for k in kv])
        keep = np.abs(x - means) > cuts
        return batch.filter(pa.array(keep))

    return docs_ds.map_batches(flag, batch_format="pyarrow")


def quality_gate(docs_ds, q: float = 0.5):
    """Adaptive per-language quality filter -> (doc_id, lang, score): keep
    documents whose alpha-ratio score is at or above their language's
    ``q``-quantile — thresholds derived from the corpus itself rather
    than fixed constants, so the gate tracks per-language score
    distributions.

    Scale shape: scores are one vectorized map pass; the threshold comes
    from a (lang, score) histogram exchange whose size is bounded by the
    6-decimal score grid (<= 1e6 distinct values per language, however
    large the corpus), reduced to one DuckDB-exact ``quantile_disc``
    median per language (language-count rows) and broadcast into a pure
    filter map — the corpus stream is never exchanged."""
    from ray.data.aggregate import Count

    from .relational import _disc_rank

    def score_batch(batch: pa.Table) -> pa.Table:
        text = batch["text"].combine_chunks()
        n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        alpha = _removed_len(text, "[A-Za-z]").to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "score": pa.array(
                    round_away(alpha / np.maximum(n_chars, 1), 6), pa.float64()
                ),
            }
        )

    scored = docs_ds.map_batches(score_batch, batch_format="pyarrow")
    hist = scored.groupby(["lang", "score"]).aggregate(Count())

    def med_rows(group: pa.Table) -> pa.Table:
        v = group["score"].to_numpy(zero_copy_only=False)
        c = group["count()"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(v, kind="stable")
        cum = np.cumsum(c[order])
        n = int(cum[-1])
        pos = int(np.searchsorted(cum, _disc_rank(q, n)))
        return pa.Table.from_pydict(
            {
                "lang": group["lang"].slice(0, 1),
                "med": pa.array([float(v[order][pos])], pa.float64()),
            }
        )

    meds = {
        r["lang"]: r["med"]
        for r in hist.groupby("lang")
        .map_groups(med_rows, batch_format="pyarrow")
        .take_all()  # language-count rows — driver-trivial
    }

    def gate(batch: pa.Table) -> pa.Table:
        langs = batch["lang"].to_pylist()
        thr = np.array([meds[l] for l in langs], dtype=np.float64)
        sc = batch["score"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(sc >= thr))

    return scored.map_batches(gate, batch_format="pyarrow")


def oov_rate(docs_ds, vocab_k: int = 1000):
    """Per-document out-of-vocabulary token fraction against the corpus's
    own top-``vocab_k`` vocabulary — high OOV flags garbled extractions,
    encoding damage and off-domain noise that length/punctuation heuristics
    (:func:`quality_batch`) miss.

    Two-pass broadcast shape (same as TF-IDF): pass 1 is the exact
    distributed top-k (:func:`my_ocr_ray.corpus.ngram_topk` at n=1 — the
    only driver materialization is the k-row vocabulary itself), shipped
    once via ``ray.put``; pass 2 is a pure vectorized map using Arrow
    ``is_in`` against the broadcast value set."""
    import ray

    from .corpus import flat_tokens, ngram_topk
    from .functions.num import round_away

    vocab_rows = ngram_topk(docs_ds, n=1, k=vocab_k).take_all()  # k rows
    vocab = pa.array(sorted(r["ngram"] for r in vocab_rows), pa.string())
    vocab_ref = ray.put(vocab)

    def score(batch: pa.Table, vocab_ref=vocab_ref) -> pa.Table:
        voc = (
            ray.get(vocab_ref)
            if isinstance(vocab_ref, ray.ObjectRef)
            else vocab_ref
        )
        toks, rows, n_rows = flat_tokens(batch["text"])
        if len(toks):
            n_tok = np.bincount(rows, minlength=n_rows).astype(np.int64)
            flags = pc.invert(pc.is_in(toks, value_set=voc)).to_numpy(
                zero_copy_only=False
            )
            oov_ct = np.bincount(
                rows, weights=flags.astype(np.float64), minlength=n_rows
            )
        else:
            n_tok = np.zeros(n_rows, dtype=np.int64)
            oov_ct = np.zeros(n_rows, dtype=np.float64)
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "oov": pa.array(
                    round_away(oov_ct / np.maximum(n_tok, 1), 6), pa.float64()
                ),
            }
        )

    return docs_ds.map_batches(score, batch_format="pyarrow")


def source_divergence(docs_ds):
    """Per-source KL divergence of the token distribution from the corpus
    mixture — the domain-drift / mixture-observability report: a source
    whose language shifts (or whose scraper broke) jumps in KL long before
    eyeballing samples would catch it.

    ``kl(source) = Σ_tok p_s(tok) · ln(p_s(tok) / p_g(tok))`` where p_s is
    the source's token distribution and p_g the global one. Both come from
    ONE (source, token) count table: map-side Arrow ``value_counts``
    partials on a ``source\\x00token`` key, a single vocabulary×sources-
    sized combine block (hash-exchange on source instead when vocabularies
    stop fitting, as :func:`my_ocr_ray.corpus.inverted_index` does), and
    the global distribution is the token marginal of that same block — no
    second corpus pass."""
    from .functions.num import round_away

    def partial(batch: pa.Table) -> pa.Table:
        values, offsets, nonempty = _token_lists(batch["text"])
        n_rows = len(offsets) - 1
        row_of = np.repeat(np.arange(n_rows), np.diff(offsets))[nonempty]
        toks = values.filter(pa.array(nonempty))
        if len(toks) == 0:
            return pa.Table.from_pydict(
                {"key": pa.array([], pa.string()), "c": pa.array([], pa.int64())}
            )
        src = batch["source"].combine_chunks() if isinstance(
            batch["source"], pa.ChunkedArray
        ) else batch["source"]
        key = pc.binary_join_element_wise(src.take(pa.array(row_of)), toks, "\x00")
        vc = key.value_counts()
        return pa.Table.from_pydict(
            {"key": vc.field("values"), "c": pc.cast(vc.field("counts"), pa.int64())}
        )

    def combine(batch: pa.Table) -> pa.Table:
        g = batch.group_by("key").aggregate([("c", "sum")])
        return agg_named(g, {"key": "key", "c_sum": "c"})

    empty = pa.Table.from_pydict(
        {
            "source": pa.array([], pa.string()),
            "n_tokens": pa.array([], pa.int64()),
            "kl": pa.array([], pa.float64()),
        }
    )

    def kl(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty
        c = batch.column("c").to_numpy(zero_copy_only=False).astype(np.float64)
        key = batch.column("key")
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
            if isinstance(key, pa.ChunkedArray):
                key = key.chunk(0)
        split = pc.split_pattern(key, "\x00")
        src = pc.list_element(split, 0)
        tok = pc.list_element(split, 1)
        ds_ = src.dictionary_encode()
        dt_ = tok.dictionary_encode()
        i_s = np.asarray(ds_.indices, dtype=np.int64)
        i_t = np.asarray(dt_.indices, dtype=np.int64)
        ns = np.bincount(i_s, weights=c)          # tokens per source
        cg = np.bincount(i_t, weights=c)          # global token counts
        n = c.sum()
        contrib = (c / ns[i_s]) * np.log((c / ns[i_s]) / (cg[i_t] / n))
        kl_s = np.bincount(i_s, weights=contrib, minlength=len(ns))
        return pa.Table.from_pydict(
            {
                "source": ds_.dictionary,
                "n_tokens": pa.array(ns.astype(np.int64), pa.int64()),
                "kl": pa.array(round_away(kl_s, 6), pa.float64()),
            }
        )

    return (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
        .map_batches(kl, batch_format="pyarrow", batch_size=None)
    )


def validate_table(ds, rules: dict[str, "callable"]):
    """Data-quality audit -> (rule, n_violations, n_rows): evaluate each
    named rule (a vectorized ``pa.Table -> bool ndarray`` predicate where
    True = VALID) over every block and report corpus-wide violation
    counts — the dbt-test / expectation-check step before a corpus ships.

    Pure map-side partial counts (rules x blocks rows) + one tiny Sum
    keyed by rule name; the data stream is never exchanged."""
    from ray.data.aggregate import Sum

    names = list(rules)

    def partial(batch: pa.Table) -> pa.Table:
        viol, total = [], []
        for name in names:
            ok = np.asarray(rules[name](batch), dtype=bool)
            viol.append(int((~ok).sum()))
            total.append(batch.num_rows)
        return pa.Table.from_pydict(
            {
                "rule": pa.array(names, pa.string()),
                "v": pa.array(viol, pa.int64()),
                "t": pa.array(total, pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("rule")
        .aggregate(Sum("v"), Sum("t"))
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch["rule"],
                pc.cast(batch["sum(v)"], pa.int64()),
                pc.cast(batch["sum(t)"], pa.int64()),
            ],
            names=["rule", "n_violations", "n_rows"],
        )

    return agg.map_batches(rename, batch_format="pyarrow")


def zscore_by_source(docs_ds):
    """Per-source standardization of document length -> (doc_id, source,
    z_chars): z = (n_chars - mean) / population-stddev within the row's
    source, rounded 4dp; sources with zero variance get z = 0.

    Scale shape: the group statistics are EXACT INTEGER sums — per-batch
    map-side partials (count, sum(n_chars), sum(n_chars^2)) reduced by a
    source-cardinality groupby, so both Ray and the SQL oracle derive the
    identical doubles from identical integers (no float-association
    drift however the blocks land). The source-count stats table is
    broadcast into a pure map; the corpus stream is never exchanged —
    the same stats-then-gate shape as :func:`quality_gate`."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        x = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = batch["source"]
        t = pa.Table.from_pydict(
            {
                "source": src,
                "cnt": pa.array(np.ones(len(x), np.int64)),
                "s": pa.array(x),
                "ss": pa.array(x * x),
            }
        )
        g = t.group_by("source").aggregate(
            [("cnt", "sum"), ("s", "sum"), ("ss", "sum")]
        )
        # select by NAME: key-column position in TableGroupBy.aggregate
        # output has flipped across pyarrow versions (keys-first vs last)
        return pa.Table.from_arrays(
            [g["source"], g["cnt_sum"], g["s_sum"], g["ss_sum"]],
            names=["source", "cnt", "s", "ss"],
        )

    stats = (
        docs_ds.select_columns(["source", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("cnt"), Sum("s"), Sum("ss"))
        .take_all()  # source-cardinality rows — driver-trivial
    )
    by_src = {
        r["source"]: (int(r["sum(cnt)"]), int(r["sum(s)"]), int(r["sum(ss)"]))
        for r in stats
    }

    def zmap(batch: pa.Table) -> pa.Table:
        src = batch["source"].to_pylist()
        x = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = np.array([by_src[s][0] for s in src], np.float64)
        s1 = np.array([by_src[s][1] for s in src], np.float64)
        s2 = np.array([by_src[s][2] for s in src], np.float64)
        mean = s1 / n
        var = s2 / n - mean * mean
        sd = np.sqrt(np.maximum(var, 0.0))
        z = np.where(sd > 0, (x - mean) / np.where(sd > 0, sd, 1.0), 0.0)
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "source": batch["source"],
                "z_chars": pa.array(round_away(z, 4), pa.float64()),
            }
        )

    return docs_ds.select_columns(["doc_id", "source", "n_chars"]).map_batches(
        zmap, batch_format="pyarrow"
    )


def normalize_text(docs_ds):
    r"""Canonical text cleanup -> (doc_id, text_norm, changed): Unicode NFC
    normalization, whitespace runs collapsed to single spaces, edges
    trimmed; ``changed`` = 1 when the cleanup altered the text. The
    canonicalization pass every web-scale corpus runs before hashing /
    dedup (the fingerprint kernels assume collapsed whitespace).

    Map-side only — zero exchanges, trivially resumable. The whitespace
    pass is one Arrow regex kernel over the EXPLICIT Unicode-whitespace
    class shared verbatim with the SQL oracle (``textproc.WS_CLASS_RE`` —
    RE2's \s and Arrow's utf8_trim_whitespace disagree on edge chars
    like \x0b, so neither is used), then a space-only trim; NFC runs via
    ``unicodedata`` on the NON-ASCII rows only (this build's
    ``pc.utf8_normalize`` decomposes regardless of the requested form, so
    it can't be used), selected by a vectorized ASCII mask — on
    ASCII-dominant web corpora the Python branch touches a small fraction
    of rows."""
    import unicodedata

    from .functions.textproc import WS_CLASS_RE

    def norm(batch: pa.Table) -> pa.Table:
        orig = batch["text"].combine_chunks()
        text = orig
        non_ascii = pc.greater(
            pc.count_substring_regex(text, r"[^\x00-\x7F]"), 0
        ).to_numpy(zero_copy_only=False)
        if non_ascii.any():
            vals = text.to_pylist()
            idx = np.flatnonzero(non_ascii)
            for k in idx:
                vals[k] = unicodedata.normalize("NFC", vals[k])
            text = pa.array(vals, pa.string())
        out = pc.utf8_trim(
            pc.replace_substring_regex(text, WS_CLASS_RE, " "),
            characters=" ",
        )
        changed = pc.cast(pc.not_equal(out, orig), pa.int64())
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "text_norm": out,
                "changed": changed,
            }
        )

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        norm, batch_format="pyarrow"
    )


def compress_ratio_batch(batch: pa.Table, level: int = 6) -> pa.Table:
    """zlib compression ratio per document -> (doc_id, n_bytes,
    n_compressed, compress_ratio): highly repetitive or templated text
    compresses far below prose (~0.3-0.4 for natural language, ~0.05 for
    boilerplate loops) — the cheap redundancy prior CCNet-family
    curation stacks use alongside the token heuristics. Deterministic
    (fixed zlib level), per-row C calls, pure map-side."""
    import zlib

    from .functions.num import round_away

    texts = batch["text"].to_pylist()
    raw = np.array([len(t.encode("utf-8")) for t in texts], dtype=np.int64)
    comp = np.array(
        [len(zlib.compress(t.encode("utf-8"), level)) for t in texts],
        dtype=np.int64,
    )
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "n_bytes": pa.array(raw, pa.int64()),
            "n_compressed": pa.array(comp, pa.int64()),
            "compress_ratio": pa.array(
                round_away(comp / np.maximum(raw, 1), 6), pa.float64()
            ),
        }
    )
