"""EL-Rec reproduction.

A from-scratch Python implementation of *EL-Rec: Efficient Large-Scale
Recommendation Model Training via Tensor-Train Embedding Table*
(Wang et al., SC 2022), including every substrate the paper depends on:

* a manual-backward NN stack and the full DLRM model (:mod:`repro.nn`,
  :mod:`repro.models`);
* dense / TT-Rec / Eff-TT embedding bags with the paper's three kernel
  optimizations as toggleable flags (:mod:`repro.embeddings`);
* locality-based index reordering with a from-scratch Louvain
  (:mod:`repro.reorder`);
* synthetic Avazu/Criteo-shaped click logs (:mod:`repro.data`);
* the parameter-server pipeline with the LC-managed embedding cache,
  plus functional data parallelism and a calibrated device cost model
  (:mod:`repro.system`);
* strategy models of the DLRM / FAE / TT-Rec / HugeCTR / TorchRec
  baselines (:mod:`repro.frameworks`);
* a pluggable execution-backend layer all hot-path kernels route
  through — reference numpy, plus an interposer that counts FLOPs/bytes
  or traps bad numerics — with plan-cached TT contractions
  (:mod:`repro.backend`).

Quickstart::

    import numpy as np
    from repro import EffTTEmbeddingBag

    bag = EffTTEmbeddingBag(num_embeddings=1_000_000, embedding_dim=64,
                            tt_rank=32, seed=0)
    pooled = bag(np.array([3, 17, 17, 99]), np.array([0, 2, 4]))
    # drop-in for torch.nn.EmbeddingBag(mode="sum")
"""

from repro.backend import (
    InstrumentedBackend,
    NumpyBackend,
    get_backend,
    set_backend,
    use_backend,
)
from repro.embeddings import (
    DenseEmbeddingBag,
    EffTTEmbeddingBag,
    EmbeddingCache,
    TTEmbeddingBag,
)
from repro.models import DLRM, DLRMConfig, EmbeddingBackend
from repro.reorder import IndexBijection, build_bijection
from repro.data import (
    SyntheticClickLog,
    avazu_like,
    criteo_kaggle_like,
    criteo_tb_like,
)

__version__ = "1.0.0"

__all__ = [
    "NumpyBackend",
    "InstrumentedBackend",
    "get_backend",
    "set_backend",
    "use_backend",
    "DenseEmbeddingBag",
    "TTEmbeddingBag",
    "EffTTEmbeddingBag",
    "EmbeddingCache",
    "DLRM",
    "DLRMConfig",
    "EmbeddingBackend",
    "IndexBijection",
    "build_bijection",
    "SyntheticClickLog",
    "avazu_like",
    "criteo_kaggle_like",
    "criteo_tb_like",
    "__version__",
]
