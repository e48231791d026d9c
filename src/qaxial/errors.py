"""Exception types shared across the package."""


class QaxialError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(QaxialError, ValueError):
    """Operands have incompatible shapes or channel counts."""


class ConfigurationError(QaxialError, ValueError):
    """A layer, architecture spec, or run configuration is invalid."""


class ContractError(QaxialError, ValueError):
    """An operation was called outside its documented domain."""


class GraphStateError(QaxialError, RuntimeError):
    """The autodiff tape was used after being consumed by backward()."""


class DegenerateBatchError(QaxialError, ValueError):
    """Batch statistics requested over fewer than two elements."""


class NumericsError(QaxialError, ArithmeticError):
    """A forward op produced NaN/Inf while debug checks were enabled, or a
    model scored by ``evaluate`` gave non-finite outputs or metric total."""


class OracleError(QaxialError, RuntimeError):
    """The function under finite-difference checking is not deterministic."""


class CheckpointIntegrityError(QaxialError, IOError):
    """Checkpoint file is corrupt, truncated, or fails its checksum."""


class TrainingDivergedError(QaxialError, RuntimeError):
    """Training loss became NaN/Inf."""

    def __init__(self, epoch: int, step: int):
        super().__init__(f"loss diverged (NaN/Inf) at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step

    def __reduce__(self):  # pickle by (epoch, step), so it crosses processes
        return type(self), (self.epoch, self.step)


class DataFormatError(QaxialError, ValueError):
    """An on-disk dataset or image file does not match its format."""


class LabelError(QaxialError, IndexError):
    """A class label lies outside the model's class range."""
