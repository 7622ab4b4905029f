"""VAE-based relational data synthesizer (paper §6.3 baseline)."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..api.base import Synthesizer, prefixed, unprefixed
from ..api.registry import register
from ..api.seeding import substream
from ..datasets.schema import Table
from ..errors import TrainingError
from ..nn import Adam, Tensor, get_default_dtype, no_grad
from ..transform import RecordTransformer
from .model import VAEModel, elbo_loss


@register("vae")
class VAESynthesizer(Synthesizer):
    """Fit a VAE on the transformed table; sample from the prior.

    Uses the same vector-form transformation as the GAN pipeline
    (one-hot + GMM by default), so comparisons isolate the generative
    model rather than the representation.  Implements the unified
    :class:`repro.api.Synthesizer` contract under the name ``"vae"``.

    ``keep_snapshots`` mirrors the GAN family: per-epoch model
    snapshots enable validation-based epoch selection through
    ``repro.synthesize(table, method="vae", valid=...)``; with
    ``keep_snapshots=False`` only the final epoch is deep-copied (the
    others record ``None``), the lazy-snapshot memory win used by
    sweeps without a validation table.
    """

    default_sample_batch = 4096
    #: Streaming via a seeded replay reservoir, like the GAN family.
    supports_partial_fit = True

    def __init__(self, latent_dim: int = 32, hidden_dim: int = 128,
                 epochs: int = 10, iterations_per_epoch: int = 40,
                 batch_size: int = 64, lr: float = 1e-3,
                 kl_weight: float = 0.2,
                 categorical_encoding: str = "onehot",
                 numerical_normalization: str = "gmm",
                 gmm_components: int = 5, keep_snapshots: bool = True,
                 seed: int = 0, reservoir_rows: int = 8192):
        super().__init__(seed=seed)
        self.latent_dim = latent_dim
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.iterations_per_epoch = iterations_per_epoch
        self.batch_size = batch_size
        self.lr = lr
        self.kl_weight = kl_weight
        self.categorical_encoding = categorical_encoding
        self.numerical_normalization = numerical_normalization
        self.gmm_components = gmm_components
        self.keep_snapshots = bool(keep_snapshots)
        self.model: Optional[VAEModel] = None
        self.transformer: Optional[RecordTransformer] = None
        self.losses: List[float] = []
        self._snapshots: List[Optional[Dict[str, np.ndarray]]] = []
        self.reservoir_rows = int(reservoir_rows)
        self._reservoir = None
        self._stream_transformer = None

    def _fit(self, table: Table, callbacks, conditions=None) -> None:
        self.transformer = RecordTransformer(
            categorical_encoding=self.categorical_encoding,
            numerical_normalization=self.numerical_normalization,
            gmm_components=self.gmm_components, rng=self.rng)
        self.transformer.fit(table)
        data = self.transformer.transform(table)
        # Seed the streaming state (dedicated substreams: the training
        # trajectory below stays bit-identical) so a later partial_fit
        # continues from this table instead of forgetting it.
        self._seed_stream_state(table)
        self._train_transformed(data, callbacks)

    def _train_transformed(self, data: np.ndarray, callbacks) -> None:
        """Train the VAE on an already-transformed table."""
        blocks = self.transformer.blocks
        self.model = VAEModel(blocks, latent_dim=self.latent_dim,
                              hidden_dim=self.hidden_dim, rng=self.rng)
        optimizer = Adam(self.model.parameters(), lr=self.lr)
        self.losses = []
        self._snapshots = []
        n = len(data)
        for epoch in range(self.epochs):
            for _ in range(self.iterations_per_epoch):
                idx = self.rng.integers(0, n, size=min(self.batch_size, n))
                batch = data[idx]
                optimizer.zero_grad()
                pred, mu, logvar = self.model(Tensor(batch), self.rng)
                loss = elbo_loss(pred, batch, mu, logvar, blocks,
                                 kl_weight=self.kl_weight)
                loss.backward()
                optimizer.step()
                self.losses.append(float(loss.data))
            # Lazy snapshots, GAN-parity: the final epoch is always
            # kept so the trained model can be restored and persisted.
            take_snapshot = self.keep_snapshots or epoch == self.epochs - 1
            self._snapshots.append(self.model.state_dict()
                                   if take_snapshot else None)
            for callback in callbacks:
                callback({"epoch": epoch, "loss": self.losses[-1]})
        self._active_snapshot = len(self._snapshots) - 1

    # ------------------------------------------------------------------
    # Streaming (seeded replay reservoir + incremental transformer)
    # ------------------------------------------------------------------
    def _reset_fit_state(self) -> None:
        # Clean-refit contract: no transformer, loss history, or stream
        # buffer from a previous fit survives into this one.
        self.transformer = None
        self.model = None
        self.losses = []
        self._snapshots = []
        self._reservoir = None
        self._stream_transformer = None

    def _seed_stream_state(self, table: Table) -> None:
        from ..stream.reservoir import TableReservoir

        if self._reservoir is None:
            self._reservoir = TableReservoir(
                self.reservoir_rows,
                rng=substream(self.seed, "stream", "reservoir"))
            self._stream_transformer = RecordTransformer(
                categorical_encoding=self.categorical_encoding,
                numerical_normalization=self.numerical_normalization,
                gmm_components=self.gmm_components,
                rng=substream(self.seed, "stream", "transform"))
        self._reservoir.add(table)
        self._stream_transformer.partial_fit(table)

    def _partial_fit(self, table: Table) -> None:
        self._seed_stream_state(table)

    def _finalize_partial(self) -> None:
        if self._reservoir is None or len(self._reservoir) == 0:
            raise TrainingError("no stream chunks ingested")
        table = self._reservoir.table()
        self.transformer = self._stream_transformer.finalize()
        data = self.transformer.transform(table)
        self._train_transformed(data, [])

    # ------------------------------------------------------------------
    # Snapshots (validation-based epoch selection, paper §6.2)
    # ------------------------------------------------------------------
    @property
    def supports_snapshots(self) -> bool:
        return bool(self._snapshots)

    @property
    def snapshots(self) -> List[Optional[Dict[str, np.ndarray]]]:
        if not self._snapshots:
            raise TrainingError("synthesizer has no training history")
        return self._snapshots

    def _snapshot_module(self) -> VAEModel:
        return self.model

    # ------------------------------------------------------------------
    # Phase III
    # ------------------------------------------------------------------
    def _sampling_session(self):
        return self._eval_mode_session(self.model)

    def spawn_sampler(self, worker_id: int = 0) -> "VAESynthesizer":
        """Worker prep (see :meth:`repro.api.Synthesizer.spawn_sampler`).

        Additionally drops per-epoch snapshots and the loss history —
        decoding from the prior needs neither, and snapshots are the
        dominant per-worker memory cost after a fork.
        """
        super().spawn_sampler(worker_id)
        self._snapshots = []
        self.losses = []
        return self

    def _sample_chunk(self, m: int, rng: np.random.Generator,
                      conditions=None) -> Table:
        z = Tensor(rng.standard_normal((m, self.latent_dim),
                                       dtype=get_default_dtype()))
        with no_grad():
            decoded = self.model.decode(z).data
        return self.transformer.inverse(decoded)

    def training_curves(self) -> Dict[str, List[float]]:
        if not self.losses:
            return {}
        # One value per epoch: the mean ELBO over that epoch's iterations.
        per_epoch = np.array_split(np.asarray(self.losses), self.epochs)
        return {"loss": [float(np.mean(chunk)) for chunk in per_epoch
                         if len(chunk)]}

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _state(self):
        meta = {
            "params": {
                "latent_dim": self.latent_dim,
                "hidden_dim": self.hidden_dim,
                "epochs": self.epochs,
                "iterations_per_epoch": self.iterations_per_epoch,
                "batch_size": self.batch_size,
                "lr": self.lr,
                "kl_weight": self.kl_weight,
                "categorical_encoding": self.categorical_encoding,
                "numerical_normalization": self.numerical_normalization,
                "gmm_components": self.gmm_components,
                "keep_snapshots": self.keep_snapshots,
                "seed": self.seed,
                "reservoir_rows": self.reservoir_rows,
            },
            "transformer": self.transformer.to_state(),
            "active_snapshot": self._active_snapshot,
        }
        # Only the active model is persisted (the winning snapshot is
        # active after selection), matching the GAN family.
        return meta, prefixed("model", self.model.state_dict())

    def _load_state(self, state, arrays) -> None:
        self.transformer = RecordTransformer.from_state(
            state["transformer"], rng=self.rng)
        self.model = VAEModel(self.transformer.blocks,
                              latent_dim=self.latent_dim,
                              hidden_dim=self.hidden_dim, rng=self.rng)
        self.model.load_state_dict(unprefixed("model", arrays))
        self._active_snapshot = state.get("active_snapshot")
