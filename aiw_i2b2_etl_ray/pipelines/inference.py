"""Batched model inference as an actor-pool stage — "load the model once
per actor, score per batch", demonstrated with a driver-checkable model.
Every other map stage in this engine runs as a stateless task that
``ray.get``s its broadcast side; actor pools are kept only where
construction is a model load (here) or a decoder load (``multimodal``).

The "model" is a fixed-coefficient logistic scorer over cheap document
features (length, token count, alpha ratio).  That keeps the full
inference plumbing — weights materialized in ``__init__`` (the model-load
slot), vectorized feature extraction + matmul + sigmoid per batch, typed
float output — REAL and the result exactly reproducible in SQL, while a
production model swaps in by replacing ``_load_model`` (exactly like
``multimodal.FakeDecoder``).  Batch size is left to Ray (small feature
width); a large-activation model would cap ``batch_size`` the way
``multimodal.BINARY_BATCH_SIZE`` does.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..functions.numeric import round_half_away

#: fixed "trained" coefficients: [bias, n_chars/1000, n_tokens/100, alpha_ratio]
MODEL_W = (-1.5, 0.8, 0.45, 2.0)

_WORD = r"[0-9A-Za-z_]+"


def model_score(sf_dir: str, model_path: str | None = None) -> rd.Dataset:
    """Per-document quality-model score in [0, 1]: sigmoid of a linear
    model over (n_chars, n_tokens, alpha_ratio).

    ``model_path`` is the real-model swap surface: a ``.npy`` weight file
    loaded ONCE per actor in the model-load slot (each worker reads it
    locally — no driver shipping), replacing the built-in deterministic
    weights the oracle pins.  A heavier model (torch/onnx) drops into the
    same ``__init__``-loads / ``__call__``-scores shape unchanged."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    class Scorer:
        def __init__(self, path: str | None = None):
            # the model-load slot: executed once per actor, never per batch
            self.w = (
                np.load(path).astype(np.float64)
                if path
                else np.array(MODEL_W, dtype=np.float64)
            )

        def __call__(self, t: pa.Table) -> pa.Table:
            import polars as pl

            # feature extraction stays in the Rust regex kernels over the
            # zero-copy Arrow batch; only the tiny feature matrix hits numpy
            f = pl.from_arrow(t).select(
                pl.col("text").str.len_chars().cast(pl.Float64).clip(lower_bound=1.0),
                pl.col("text").str.count_matches(_WORD).cast(pl.Float64).alias("toks"),
                pl.col("text").str.count_matches("[A-Za-z]").cast(pl.Float64).alias("alpha"),
            )
            n, toks, alpha = (f[c].to_numpy() for c in f.columns)
            feats = np.column_stack(
                [np.ones_like(n), n / 1000.0, toks / 100.0, alpha / n]
            )
            z = feats @ self.w
            score = 1.0 / (1.0 + np.exp(-z))
            return pa.table(
                {"doc_id": t["doc_id"], "model_score": pa.array(round_half_away(score, 6))}
            )

    return ds.map_batches(
        Scorer,
        fn_constructor_kwargs={"path": model_path},
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


SQL_MODEL_SCORE = f"""
WITH f AS (
  SELECT doc_id,
         greatest(length(text), 1) AS n,
         length(regexp_extract_all(text, '{_WORD}')) AS toks,
         length(regexp_extract_all(text, '[A-Za-z]')) AS alpha
  FROM documents
)
SELECT doc_id,
       ROUND(1.0 / (1.0 + exp(-(
         {MODEL_W[0]} + {MODEL_W[1]} * n / 1000.0
         + {MODEL_W[2]} * toks / 100.0 + {MODEL_W[3]} * alpha / n
       ))), 6) AS model_score
FROM f
"""
