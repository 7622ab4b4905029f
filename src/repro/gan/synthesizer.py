"""End-to-end GAN synthesizer: the unified framework of paper Figure 2.

:class:`GANSynthesizer` drives the three phases:

I.   data transformation (vector or matrix form per the design config);
II.  adversarial training (one of VTrain / WTrain / CTrain / DPTrain),
     producing one generator snapshot per epoch for model selection;
III. synthetic data generation — noise (plus sampled label conditions)
     through the trained generator, then the inverse transformation.

It implements the unified :class:`repro.api.Synthesizer` contract
(``fit`` / ``sample`` / ``sample_iter`` / ``save`` / ``load``) and is
registered under the name ``"gan"``.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..api.base import Synthesizer, prefixed, unprefixed
from ..api.registry import register
from ..api.seeding import substream
from ..core.design_space import DesignConfig
from ..datasets.schema import Table
from ..errors import ConfigError, TrainingError
from ..nn import Module, Tensor, get_default_dtype, no_grad
from ..transform import MatrixTransformer, RecordTransformer
from ..transform.record import transformer_from_state
from .cnn import CNNDiscriminator, CNNGenerator, DEFAULT_SIDE
from .lstm import LSTMDiscriminator, LSTMGenerator
from .mlp import MLPDiscriminator, MLPGenerator
from .training import TrainResult, make_trainer


@register("gan")
class GANSynthesizer(Synthesizer):
    """GAN-based relational data synthesizer.

    Parameters
    ----------
    config:
        Point in the design space (defaults to the paper's recommended
        MLP + one-hot + GMM + vanilla training).
    epochs, iterations_per_epoch:
        The paper divides training into 10 epochs and snapshots the
        generator after each for validation-based selection.
    keep_snapshots:
        When False, only the final epoch deep-copies the generator
        state (the others record ``snapshot=None``), cutting sweep
        memory by ``epochs``x generator size.  Leave True (the default)
        whenever validation-based snapshot selection will run.

    ``fit(table, callbacks=...)`` passes each callback one
    :class:`~repro.gan.training.EpochRecord` per epoch.  ``fit``'s
    ``conditions`` switches the synthesizer into *context* conditioning:
    an ``(n, cond_dim)`` float matrix with one row per training record
    (e.g. encoded parent rows in multi-table synthesis); sampling then
    requires a matching matrix.
    """

    supports_conditioning = True
    #: Streaming via a seeded replay reservoir: ``partial_fit`` buffers
    #: a bounded uniform row sample plus running transformer statistics;
    #: finalize retrains on the reservoir (bounded drift, not exact).
    supports_partial_fit = True

    def __init__(self, config: Optional[DesignConfig] = None,
                 epochs: int = 10, iterations_per_epoch: int = 40,
                 keep_snapshots: bool = True, seed: int = 0,
                 reservoir_rows: int = 8192):
        super().__init__(seed=seed)
        config = config if config is not None else DesignConfig()
        # Streaming chunk size: large enough that per-chunk python
        # dispatch amortizes against the generator GEMMs, small enough
        # that intermediates stay cache-resident.  The CNN generator's
        # fold buffers blow past L2 earlier than the vector-form models
        # (measured: 2048 beats 4096 by ~1.6x on the DCGAN stack).
        self.default_sample_batch = 2048 if config.generator == "cnn" \
            else 4096
        self.config = config
        self.epochs = epochs
        self.iterations_per_epoch = iterations_per_epoch
        self.keep_snapshots = bool(keep_snapshots)
        self.generator: Optional[Module] = None
        self.discriminator: Optional[Module] = None
        self.transformer = None
        self.train_result: Optional[TrainResult] = None
        self._label_freq: Optional[np.ndarray] = None
        self._n_labels = 0
        # Conditioning spec: "none" | "label" (one-hot of the label
        # attribute, the paper's CGAN) | "context" (arbitrary per-row
        # float matrices, e.g. relational parent contexts).
        self._cond_kind = "none"
        self._cond_dim = 0
        self.reservoir_rows = int(reservoir_rows)
        self._reservoir = None
        self._stream_transformer = None

    # ------------------------------------------------------------------
    # Phase I + II
    # ------------------------------------------------------------------
    def _fit(self, table: Table, callbacks, conditions=None) -> None:
        config = self.config
        label_attr = table.schema.label
        if conditions is not None:
            conditions = np.asarray(conditions, dtype=get_default_dtype())
            if conditions.ndim != 2 or conditions.shape[1] == 0:
                raise TrainingError(
                    f"conditions must be a (n, cond_dim) matrix, got "
                    f"shape {conditions.shape}")
            if config.matrix_form:
                raise TrainingError(
                    "context conditioning requires a vector-form "
                    "generator (mlp or lstm), not the CNN pipeline")
            if config.training != "vtrain" or config.is_conditional:
                raise TrainingError(
                    "context conditioning runs on unconditional vtrain "
                    "configs (the context replaces the label condition)")
            self._cond_kind = "context"
            self._cond_dim = int(conditions.shape[1])
            exclude = ()
        elif config.is_conditional:
            if label_attr is None:
                raise TrainingError("conditional synthesis requires a label")
            self._cond_kind = "label"
            self._cond_dim = label_attr.domain_size
            exclude = (label_attr.name,)
        else:
            self._cond_kind = "none"
            self._cond_dim = 0
            exclude = ()
        if config.matrix_form:
            self.transformer = MatrixTransformer(exclude=exclude,
                                                 side=DEFAULT_SIDE)
        else:
            self.transformer = RecordTransformer(
                categorical_encoding=config.categorical_encoding,
                numerical_normalization=config.numerical_normalization,
                gmm_components=config.gmm_components,
                exclude=exclude, rng=self.rng)
        self.transformer.fit(table)
        data = self.transformer.transform(table)
        if self._cond_kind == "none":
            # Seed the streaming state with the training rows (on
            # dedicated substreams, so the fit trajectory itself stays
            # bit-identical): a later partial_fit continues from this
            # table instead of forgetting it.
            self._seed_stream_state(table)
        self._train_transformed(table, data, callbacks, conditions)

    def _train_transformed(self, table: Table, data: np.ndarray,
                           callbacks, conditions=None) -> None:
        """Phase II on an already-transformed table (fit + stream refresh)."""
        config = self.config
        label_attr = table.schema.label
        labels = table.label_codes if label_attr is not None else None
        self._n_labels = label_attr.domain_size if label_attr else 0
        self._label_freq = None
        if labels is not None:
            counts = np.bincount(labels, minlength=self._n_labels)
            self._label_freq = counts / counts.sum()

        self.generator, self.discriminator = self._build_models()
        trainer = make_trainer(config, self.generator, self.discriminator,
                               self.rng,
                               force_conditional=self._cond_kind == "context")
        if self._cond_kind == "context":
            # The sampler's per-row "labels" are indices into the
            # context matrix, so minibatches gather matching rows.
            trainer_labels = np.arange(len(data), dtype=np.int64)
        else:
            trainer_labels = labels
        self.train_result = trainer.train(
            data, trainer_labels, self._n_labels, self.epochs,
            self.iterations_per_epoch, callbacks=callbacks,
            snapshot_epochs=None if self.keep_snapshots else (),
            conditions=conditions if self._cond_kind == "context" else None)
        self._active_snapshot = len(self.train_result.epochs) - 1

    def _build_models(self):
        config = self.config
        cond_dim = self._cond_dim
        rng = self.rng
        if config.generator == "cnn":
            generator = CNNGenerator(config.z_dim, side=self.transformer.side,
                                     rng=rng)
            discriminator = CNNDiscriminator(
                side=self.transformer.side,
                simplified=config.simplified_discriminator, rng=rng)
            return generator, discriminator

        blocks = self.transformer.blocks
        if config.generator == "mlp":
            generator = MLPGenerator(
                config.z_dim, blocks, hidden_dim=config.hidden_dim,
                n_layers=config.n_layers, cond_dim=cond_dim, rng=rng)
        elif config.generator == "lstm":
            generator = LSTMGenerator(
                config.z_dim, blocks, hidden_dim=config.lstm_hidden,
                lstm_output_dim=config.lstm_output_dim, cond_dim=cond_dim,
                rng=rng)
        else:
            raise TrainingError(f"unknown generator {config.generator!r}")

        disc_kind = config.effective_discriminator
        input_dim = self.transformer.output_dim
        if disc_kind == "mlp":
            discriminator = MLPDiscriminator(
                input_dim, hidden_dim=config.hidden_dim,
                n_layers=config.n_layers, cond_dim=cond_dim,
                simplified=config.simplified_discriminator, rng=rng)
        elif disc_kind == "lstm":
            discriminator = LSTMDiscriminator(
                blocks, hidden_dim=config.lstm_hidden, cond_dim=cond_dim,
                simplified=config.simplified_discriminator, rng=rng)
        else:
            raise TrainingError(f"unknown discriminator {disc_kind!r}")
        return generator, discriminator

    # ------------------------------------------------------------------
    # Streaming (seeded replay reservoir + incremental transformer)
    # ------------------------------------------------------------------
    def _reset_fit_state(self) -> None:
        # Clean-refit contract: conditioning spec, label marginal, and
        # stream buffers from a previous fit never leak into this one.
        self.transformer = None
        self.train_result = None
        self._label_freq = None
        self._n_labels = 0
        self._cond_kind = "none"
        self._cond_dim = 0
        self._reservoir = None
        self._stream_transformer = None

    def _make_stream_transformer(self):
        if self.config.matrix_form:
            return MatrixTransformer(side=DEFAULT_SIDE)
        return RecordTransformer(
            categorical_encoding=self.config.categorical_encoding,
            numerical_normalization=self.config.numerical_normalization,
            gmm_components=self.config.gmm_components,
            rng=substream(self.seed, "stream", "transform"))

    def _seed_stream_state(self, table: Table) -> None:
        from ..stream.reservoir import TableReservoir

        if self._reservoir is None:
            self._reservoir = TableReservoir(
                self.reservoir_rows,
                rng=substream(self.seed, "stream", "reservoir"))
            self._stream_transformer = self._make_stream_transformer()
        self._reservoir.add(table)
        self._stream_transformer.partial_fit(table)

    def _partial_fit(self, table: Table) -> None:
        if self.config.is_conditional or self._cond_kind != "none":
            raise ConfigError(
                "streaming is only supported for unconditional GAN "
                "configs (no label / context conditioning)")
        self._seed_stream_state(table)

    def _finalize_partial(self) -> None:
        if self._reservoir is None or len(self._reservoir) == 0:
            raise TrainingError("no stream chunks ingested")
        # The incremental transformer holds running statistics over
        # *every* row seen (global ranges, grow-only vocabularies); the
        # reservoir holds a bounded uniform row sample.  Retraining on
        # the reservoir under the finalized transformer bounds memory
        # while keeping the encoding consistent with the full stream.
        table = self._reservoir.table()
        self.transformer = self._stream_transformer.finalize()
        data = self.transformer.transform(table)
        self._train_transformed(table, data, [])

    # ------------------------------------------------------------------
    # Snapshots (model selection, paper §6.2)
    # ------------------------------------------------------------------
    @property
    def supports_snapshots(self) -> bool:
        return self.train_result is not None

    @property
    def snapshots(self) -> List[Dict[str, np.ndarray]]:
        if self.train_result is None:
            raise TrainingError("synthesizer has no training history")
        return self.train_result.snapshots

    def _snapshot_module(self) -> Module:
        return self.generator

    def training_curves(self) -> Dict[str, List[float]]:
        if self.train_result is None:
            return {}
        return {"g_loss": [e.g_loss for e in self.train_result.epochs],
                "d_loss": [e.d_loss for e in self.train_result.epochs]}

    # ------------------------------------------------------------------
    # Phase III
    # ------------------------------------------------------------------
    def _sampling_session(self):
        return self._eval_mode_session(self.generator)

    def spawn_sampler(self, worker_id: int = 0) -> "GANSynthesizer":
        """Worker prep (see :meth:`repro.api.Synthesizer.spawn_sampler`).

        Additionally drops the discriminator and the training history:
        a sampling worker only runs the generator, and under forked
        workers every retained snapshot would be duplicated per process
        on first write.
        """
        super().spawn_sampler(worker_id)
        self.discriminator = None
        self.train_result = None
        return self

    def _generate_raw(self, m: int, rng: np.random.Generator,
                      conditions: Optional[np.ndarray] = None
                      ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """One chunk of generator output plus its label conditions.

        Must run inside :meth:`_sampling_session` (the generator is
        assumed to be in eval mode) and the model's dtype scope.  Noise
        and conditions are drawn in that engine dtype, so a float32
        model skips a cast per chunk.
        ``conditions`` fixes the conditioning inputs explicitly: label
        codes for a label-conditional config (``None`` draws from the
        training marginal), or a ``(m, cond_dim)`` context matrix for a
        context-conditioned fit (required).
        """
        dtype = get_default_dtype()
        z = Tensor(rng.standard_normal((m, self.config.z_dim), dtype=dtype))
        cond = None
        labels = None
        if self._cond_kind == "label":
            if conditions is None:
                labels = rng.choice(self._n_labels, size=m,
                                    p=self._label_freq)
            else:
                labels = np.asarray(conditions)
                if labels.ndim != 1:
                    raise ValueError(
                        "label conditions must be a 1-D array of codes")
                labels = labels.astype(np.int64)
                if len(labels) and (labels.min() < 0
                                    or labels.max() >= self._n_labels):
                    raise ValueError(
                        f"label conditions must be codes in "
                        f"[0, {self._n_labels})")
            onehot = np.zeros((m, self._n_labels), dtype=dtype)
            onehot[np.arange(m), labels] = 1.0
            cond = Tensor(onehot)
        elif self._cond_kind == "context":
            if conditions is None:
                raise ValueError(
                    "this synthesizer was fitted with context "
                    "conditioning; sample(n, conditions=...) must supply "
                    "one context row per record")
            context = np.asarray(conditions, dtype=dtype)
            if context.shape != (m, self._cond_dim):
                raise ValueError(
                    f"expected context of shape ({m}, {self._cond_dim}), "
                    f"got {context.shape}")
            cond = Tensor(context)
        elif conditions is not None:
            raise ValueError(
                "this synthesizer was fitted without conditioning; "
                "refit with a conditional config or explicit conditions")
        with no_grad():
            raw = self.generator(z, cond).data
        return raw, labels

    def _sample_chunk(self, m: int, rng: np.random.Generator,
                      conditions=None) -> Table:
        raw, labels = self._generate_raw(m, rng, conditions=conditions)
        extra = None
        if labels is not None:
            label_name = self.transformer.exclude[0]
            extra = {label_name: labels}
        return self.transformer.inverse(raw, extra_columns=extra)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _state(self):
        meta = {
            "params": {"config": asdict(self.config), "epochs": self.epochs,
                       "iterations_per_epoch": self.iterations_per_epoch,
                       "keep_snapshots": self.keep_snapshots,
                       "seed": self.seed,
                       "reservoir_rows": self.reservoir_rows},
            "transformer": self.transformer.to_state(),
            "n_labels": self._n_labels,
            "label_freq": (self._label_freq.tolist()
                           if self._label_freq is not None else None),
            "cond_kind": self._cond_kind,
            "cond_dim": self._cond_dim,
            "active_snapshot": self._active_snapshot,
        }
        # Only the active generator is persisted: it is all Phase III
        # needs, and the winning snapshot is active after selection.
        arrays = prefixed("generator", self.generator.state_dict())
        return meta, arrays

    def _load_state(self, state, arrays) -> None:
        self.transformer = transformer_from_state(state["transformer"],
                                                  rng=self.rng)
        self._n_labels = int(state["n_labels"])
        self._label_freq = (np.asarray(state["label_freq"], dtype=np.float64)
                            if state["label_freq"] is not None else None)
        # Saves that predate context conditioning carry no cond spec;
        # reconstruct the label-mode spec from the config.
        default_kind = "label" if self.config.is_conditional else "none"
        self._cond_kind = state.get("cond_kind", default_kind)
        default_dim = self._n_labels if self._cond_kind == "label" else 0
        self._cond_dim = int(state.get("cond_dim", default_dim))
        self.generator, self.discriminator = self._build_models()
        self.generator.load_state_dict(unprefixed("generator", arrays))
        self._active_snapshot = state["active_snapshot"]

    @classmethod
    def _init_kwargs_from_state(cls, params):
        kwargs = dict(params)
        kwargs["config"] = DesignConfig(**kwargs["config"])
        return kwargs
