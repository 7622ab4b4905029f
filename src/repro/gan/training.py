"""GAN training algorithms (paper §5.2-§5.4, Table 1, Algorithms 1-4).

===========  =========  ==========  ============  ====
algorithm    loss       optimizer   sampling      DP
===========  =========  ==========  ============  ====
``vtrain``   Eq. (2)    Adam        random        no
``wtrain``   Eq. (3)    RMSProp     random        no
``ctrain``   Eq. (4)    Adam        label-aware   no
``dptrain``  Eq. (3)    RMSProp     random        yes
===========  =========  ==========  ============  ====

VTrain implements the non-saturating ("improved") generator loss plus
the per-attribute KL-divergence warm-up of Eq. (2).  WTrain is standard
WGAN: no sigmoid, weight clipping, ``d_steps`` inner critic iterations.
CTrain is VTrain with label conditions and label-aware sampling.
DPTrain is WTrain with bounded, noised discriminator gradients (DPGAN).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from ..errors import TrainingError
from ..nn import (
    Adam, Module, RMSProp, Tensor, add_gradient_noise, bce_with_logits,
    categorical_kl_sum, clip_gradients, clip_parameters, fast_math,
    get_default_dtype, no_grad,
)
from ..transform.base import BlockSpec, HEAD_TANH_SOFTMAX, HEAD_SOFTMAX
from .sampler import LabelAwareSampler, RandomSampler


@dataclass
class EpochRecord:
    """Diagnostics collected at the end of one epoch.

    ``snapshot`` is ``None`` for epochs the trainer was told not to
    snapshot (see ``BaseTrainer.train(snapshot_epochs=...)``).
    """

    epoch: int
    g_loss: float
    d_loss: float
    snapshot: Optional[Dict[str, np.ndarray]]


@dataclass
class TrainResult:
    """Everything the evaluation framework needs after training."""

    epochs: List[EpochRecord] = field(default_factory=list)
    g_losses: List[float] = field(default_factory=list)
    d_losses: List[float] = field(default_factory=list)

    @property
    def snapshots(self) -> List[Optional[Dict[str, np.ndarray]]]:
        return [e.snapshot for e in self.epochs]


def _onehot(labels: np.ndarray, n_labels: int) -> np.ndarray:
    # Built in the engine dtype so the Tensor wrap is cast-free (a
    # no-op in float64 parity mode, where zeros() is float64 already).
    out = np.zeros((len(labels), n_labels), dtype=get_default_dtype())
    out[np.arange(len(labels)), labels] = 1.0
    return out


class BaseTrainer:
    """Shared epoch loop; subclasses implement :meth:`iteration`."""

    def __init__(self, generator: Module, discriminator: Module,
                 config, rng: np.random.Generator):
        self.generator = generator
        self.discriminator = discriminator
        self.config = config
        self.rng = rng
        self._last_g_loss = 0.0
        self._last_d_loss = 0.0
        # Optional (n, cond_dim) context matrix for arbitrary-context
        # conditioning (relational parent contexts); when set, the
        # per-row "labels" handed to the sampler are row indices into it.
        self._cond_matrix: Optional[np.ndarray] = None
        # Fast-math only: run D once on [real; fake] instead of twice.
        # Unsafe when D couples rows through batch statistics (layers
        # with running-stat buffers, i.e. batch norm), because a mixed
        # real/fake batch would change those statistics.
        self._batch_d_passes = not any(
            True for _ in discriminator.named_buffers())

    def _discriminate_pair(self, real: np.ndarray, fake: Tensor, cond):
        """D logits for a real batch and a fake batch (maybe batched)."""
        if fast_math() and self._batch_d_passes:
            m = len(real)
            both = Tensor(np.concatenate([real, fake.data], axis=0))
            cond_both = None
            if cond is not None:
                cond_both = Tensor(
                    np.concatenate([cond.data, cond.data], axis=0))
            d_both = self.discriminator(both, cond_both)
            return d_both[:m], d_both[m:]
        return (self.discriminator(Tensor(real), cond),
                self.discriminator(fake, cond))

    # -- noise ----------------------------------------------------------
    def sample_noise(self, m: int) -> Tensor:
        # Drawn in the engine dtype: float32 skips a cast, and float64
        # yields the same bytes as a draw without ``dtype=``.
        return Tensor(self.rng.standard_normal((m, self.config.z_dim),
                                               dtype=get_default_dtype()))

    # -- main loop ------------------------------------------------------
    def train(self, data: np.ndarray, labels: Optional[np.ndarray],
              n_labels: int, epochs: int, iterations_per_epoch: int,
              epoch_callback: Optional[Callable[[EpochRecord], None]] = None,
              snapshot_epochs: Optional[Iterable[int]] = None,
              conditions: Optional[np.ndarray] = None) -> TrainResult:
        """Run the epoch loop.

        ``snapshot_epochs`` limits which epochs deep-copy the generator
        ``state_dict`` into their :class:`EpochRecord` (``None`` keeps
        every epoch — required for model selection).  The final epoch is
        always snapshotted so the trained generator can be restored and
        persisted.  Sweeps that skip the selection loop pass an empty
        collection and avoid ``epochs``x generator-sized deep copies.

        ``conditions`` generalizes label conditioning to arbitrary
        per-row context matrices: an ``(n, cond_dim)`` float array
        aligned with ``data``; ``labels`` must then be the row indices
        ``arange(n)`` so minibatch sampling gathers the matching rows.
        """
        if len(data) == 0:
            raise TrainingError("cannot train on an empty table")
        if conditions is not None:
            if labels is None or len(conditions) != len(data):
                raise TrainingError(
                    "context conditioning needs per-row indices as labels "
                    "and one context row per record")
            self._cond_matrix = np.asarray(conditions,
                                           dtype=get_default_dtype())
        # Hold the training matrix in the engine dtype so minibatch
        # gathers and loss statistics skip a per-iteration cast (a no-op
        # in float64 parity mode, where data already is float64).
        data = np.asarray(data, dtype=get_default_dtype())
        snapshot_set = (None if snapshot_epochs is None
                        else {int(e) for e in snapshot_epochs})
        self.prepare(data, labels, n_labels)
        result = TrainResult()
        for epoch in range(epochs):
            for _ in range(iterations_per_epoch):
                self.iteration()
                result.g_losses.append(self._last_g_loss)
                result.d_losses.append(self._last_d_loss)
            take_snapshot = (snapshot_set is None or epoch in snapshot_set
                             or epoch == epochs - 1)
            record = EpochRecord(
                epoch=epoch,
                g_loss=self._last_g_loss,
                d_loss=self._last_d_loss,
                snapshot=(self.generator.state_dict()
                          if take_snapshot else None),
            )
            result.epochs.append(record)
            if epoch_callback is not None:
                epoch_callback(record)
        return result

    def prepare(self, data, labels, n_labels) -> None:
        raise NotImplementedError

    def iteration(self) -> None:
        raise NotImplementedError

    # -- KL warm-up (paper Eq. 2) ----------------------------------------
    def kl_term(self, real_batch: np.ndarray, fake: Tensor):
        """Sum of per-attribute KL divergences on discrete blocks.

        Differentiable through the generator's softmax heads; tanh
        (numerical) blocks are skipped, matching the released Daisy code.
        Computed as one fused tape node (:func:`categorical_kl_sum`).
        """
        blocks: List[BlockSpec] = getattr(self.generator, "blocks", [])
        slices = []
        for block in blocks:
            if block.head == HEAD_SOFTMAX:
                slices.append(block.slice)
            elif block.head == HEAD_TANH_SOFTMAX:
                slices.append(slice(block.start + 1, block.stop))
        if not slices:
            return None
        return categorical_kl_sum(real_batch, fake, slices)


class VanillaTrainer(BaseTrainer):
    """Algorithm 1 (VTrain): alternating Adam steps on BCE losses.

    The generator objective uses the non-saturating loss plus the KL
    warm-up.  ``conditional=True`` turns this into CGAN-V: conditions are
    attached but minibatches stay uniformly sampled.
    """

    conditional = False

    def prepare(self, data, labels, n_labels) -> None:
        self.sampler = RandomSampler(data, labels, rng=self.rng)
        self.n_labels = n_labels
        self.opt_d = Adam(self.discriminator.parameters(), lr=self.config.lr_d)
        self.opt_g = Adam(self.generator.parameters(), lr=self.config.lr_g)

    def _conds(self, label_batch):
        if not self.conditional:
            return None, None
        if label_batch is None:
            raise TrainingError("conditional training requires labels")
        if self._cond_matrix is not None:
            # Arbitrary-context mode: label_batch carries row indices.
            return Tensor(self._cond_matrix[label_batch]), label_batch
        cond = Tensor(_onehot(label_batch, self.n_labels))
        return cond, label_batch

    def iteration(self) -> None:
        m = self.config.batch_size
        real, label_batch = self.sampler.batch(m)
        cond, _ = self._conds(label_batch)
        self._step_discriminator(real, cond)
        self._step_generator(real, cond)

    def _step_discriminator(self, real: np.ndarray, cond) -> None:
        m = len(real)
        z = self.sample_noise(m)
        with no_grad():
            fake = self.generator(z, cond)
        self.opt_d.zero_grad()
        d_real, d_fake = self._discriminate_pair(real, fake, cond)
        loss = (bce_with_logits(d_real, np.ones((m, 1)))
                + bce_with_logits(d_fake, np.zeros((m, 1))))
        loss.backward()
        self.opt_d.step()
        self._last_d_loss = float(loss.data)

    def _step_generator(self, real: np.ndarray, cond) -> None:
        m = len(real)
        z = self.sample_noise(m)
        self.opt_g.zero_grad()
        self.opt_d.zero_grad()
        fake = self.generator(z, cond)
        loss = bce_with_logits(self.discriminator(fake, cond),
                               np.ones((m, 1)))
        if self.config.kl_weight > 0:
            kl = self.kl_term(real, fake)
            if kl is not None:
                loss = loss + kl * self.config.kl_weight
        loss.backward()
        self.opt_g.step()
        self._last_g_loss = float(loss.data)


class ConditionalVanillaTrainer(VanillaTrainer):
    """CGAN-V: vanilla training with conditions, random sampling."""

    conditional = True


class CTrainTrainer(VanillaTrainer):
    """Algorithm 3 (CTrain): conditional GAN + label-aware sampling.

    Each iteration walks every label of the real data and runs one D/G
    step on a minibatch of that label, so minority labels receive the
    same number of updates as majority ones.
    """

    conditional = True

    def prepare(self, data, labels, n_labels) -> None:
        if labels is None:
            raise TrainingError("ctrain requires labels")
        self.sampler = LabelAwareSampler(data, labels, rng=self.rng)
        self.n_labels = n_labels
        self.opt_d = Adam(self.discriminator.parameters(), lr=self.config.lr_d)
        self.opt_g = Adam(self.generator.parameters(), lr=self.config.lr_g)

    def iteration(self) -> None:
        m = self.config.batch_size
        for label in self.sampler.label_domain:
            real = self.sampler.batch_for_label(label, m)
            cond = Tensor(_onehot(np.full(m, label, dtype=np.int64),
                                  self.n_labels))
            self._step_discriminator(real, cond)
            self._step_generator(real, cond)


class WGANTrainer(BaseTrainer):
    """Algorithm 2 (WTrain): Wasserstein GAN with weight clipping."""

    def prepare(self, data, labels, n_labels) -> None:
        self.sampler = RandomSampler(data, labels, rng=self.rng)
        self.opt_d = RMSProp(self.discriminator.parameters(),
                             lr=self.config.lr_d)
        self.opt_g = RMSProp(self.generator.parameters(), lr=self.config.lr_g)

    def _critic_step(self, real: np.ndarray) -> float:
        m = len(real)
        z = self.sample_noise(m)
        with no_grad():
            fake = self.generator(z)
        self.opt_d.zero_grad()
        d_real, d_fake = self._discriminate_pair(real, fake, None)
        loss = d_fake.mean() - d_real.mean()  # minimize (d_fake - d_real)
        loss.backward()
        self._post_process_critic_grads(m)
        self.opt_d.step()
        clip_parameters(self.discriminator.parameters(),
                        self.config.weight_clip)
        return float(loss.data)

    def _post_process_critic_grads(self, batch_size: int) -> None:
        """Hook for DPTrain's gradient sanitization."""

    def iteration(self) -> None:
        d_steps = max(1, self.config.d_steps)
        for _ in range(d_steps):
            real, _ = self.sampler.batch(self.config.batch_size)
            self._last_d_loss = self._critic_step(real)
        m = self.config.batch_size
        z = self.sample_noise(m)
        self.opt_g.zero_grad()
        self.opt_d.zero_grad()
        loss = -self.discriminator(self.generator(z)).mean()
        loss.backward()
        self.opt_g.step()
        self._last_g_loss = float(loss.data)


class DPTrainer(WGANTrainer):
    """Algorithm 4 (DPTrain): DPGAN — WGAN + noised critic gradients.

    The critic's batch gradient is clipped to ``dp_grad_bound`` and
    Gaussian noise ``N(0, (sigma * bound)^2 / m^2)`` is added, the
    batch-level analogue of DPGAN's per-example construction.  Only the
    discriminator touches real data; the generator inherits privacy by
    post-processing.
    """

    def _post_process_critic_grads(self, batch_size: int) -> None:
        bound = self.config.dp_grad_bound
        sigma = self.config.dp_noise_multiplier
        clip_gradients(self.discriminator.parameters(), bound)
        add_gradient_noise(self.discriminator.parameters(),
                           sigma * bound / batch_size, self.rng)


TRAINERS = {
    "vtrain": VanillaTrainer,
    "wtrain": WGANTrainer,
    "ctrain": CTrainTrainer,
    "dptrain": DPTrainer,
}


def make_trainer(config, generator: Module, discriminator: Module,
                 rng: np.random.Generator,
                 force_conditional: bool = False) -> BaseTrainer:
    """Instantiate the trainer matching ``config.training``.

    ``vtrain`` with ``conditional=True`` resolves to CGAN-V.
    ``force_conditional`` requests the conditional vanilla trainer even
    when the config itself is unconditional — used by context-matrix
    conditioning, where the condition is not a label of the table.
    """
    name = config.training
    if name == "vtrain" and (config.is_conditional or force_conditional):
        return ConditionalVanillaTrainer(generator, discriminator, config, rng)
    try:
        cls = TRAINERS[name]
    except KeyError:
        raise TrainingError(f"unknown training algorithm {name!r}") from None
    return cls(generator, discriminator, config, rng)
