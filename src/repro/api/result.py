"""The value object returned by the :func:`repro.synthesize` facade."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..datasets.schema import Table


@dataclass
class SynthesisResult:
    """A synthetic table plus the provenance of its generation.

    Attributes
    ----------
    table:
        The synthetic table ``T'``.
    synthesizer:
        The fitted synthesizer (best snapshot active for GAN families),
        ready for further :meth:`~repro.api.base.Synthesizer.sample` /
        :meth:`~repro.api.base.Synthesizer.save` calls.
    method:
        Registry name of the family ("gan", "vae", "privbayes", ...).
    best_epoch:
        Index of the validation-selected snapshot, when the family
        supports per-epoch snapshots and a validation table was given.
    curves:
        Named per-epoch series: the model-selection curve (key
        ``"selection"``) and any family training diagnostics
        (``"g_loss"``, ``"d_loss"``, ``"loss"``, ...).
    provenance:
        JSON-friendly generation record: seed, sizes, config
        description, selection criterion, wall-clock seconds.
    """

    table: Table
    synthesizer: Any
    method: str
    best_epoch: Optional[int] = None
    curves: Dict[str, List[float]] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)

    @property
    def selection_curve(self) -> List[float]:
        return self.curves.get("selection", [])

    @property
    def final_score(self) -> Optional[float]:
        """Selection score of the chosen snapshot (None without selection)."""
        curve = self.selection_curve
        if not curve or self.best_epoch is None:
            return None
        return curve[self.best_epoch]

    def __repr__(self) -> str:
        return (f"SynthesisResult(method={self.method!r}, n={len(self.table)}, "
                f"best_epoch={self.best_epoch})")
