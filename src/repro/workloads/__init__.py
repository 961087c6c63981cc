"""Dataset generators for every experiment in the paper."""

from .base import OneUniformPerKey, Workload
from .extra import (
    GRAYSORT_PAYLOAD_WORDS,
    StaggeredWorkload,
    exponential,
    gaussian,
    graysort,
    graysort_batch,
    reverse_sorted,
    staggered,
)
from .science import (
    COSMO_DELTA,
    PTF_DELTA,
    cosmology,
    cosmology_batch,
    ptf,
    ptf_batch,
)
from .synthetic import (
    ZIPF_UNIVERSE,
    nearly_sorted,
    nearly_sorted_batch,
    partially_ordered,
    runs_batch,
    uniform,
    uniform_batch,
    uniform_keys,
    zipf,
    zipf_batch,
    zipf_delta,
    zipf_keys,
    zipf_pmf,
)


def by_name(name: str, **kwargs) -> Workload:
    """Construct a workload from its CLI name.

    Supported: ``uniform``, ``zipf`` (kwarg ``alpha``), ``runs``
    (kwarg ``runs``), ``nearly-sorted`` (kwarg ``disorder``), ``ptf``,
    ``cosmology``.
    """
    factories = {
        "uniform": uniform,
        "zipf": zipf,
        "runs": partially_ordered,
        "nearly-sorted": nearly_sorted,
        "ptf": ptf,
        "cosmology": cosmology,
        "graysort": graysort,
        "gaussian": gaussian,
        "exponential": exponential,
        "reverse": reverse_sorted,
        "staggered": staggered,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; options: {sorted(factories)}") from None
    return factory(**kwargs)


__all__ = [
    "OneUniformPerKey",
    "Workload",
    "by_name",
    "GRAYSORT_PAYLOAD_WORDS",
    "StaggeredWorkload",
    "exponential",
    "gaussian",
    "graysort",
    "graysort_batch",
    "reverse_sorted",
    "staggered",
    "COSMO_DELTA",
    "PTF_DELTA",
    "cosmology",
    "cosmology_batch",
    "ptf",
    "ptf_batch",
    "ZIPF_UNIVERSE",
    "nearly_sorted",
    "nearly_sorted_batch",
    "partially_ordered",
    "runs_batch",
    "uniform",
    "uniform_batch",
    "uniform_keys",
    "zipf",
    "zipf_batch",
    "zipf_delta",
    "zipf_keys",
    "zipf_pmf",
]
