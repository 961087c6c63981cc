"""Sort-as-a-service: job queue, admission control, scheduling.

The subsystem behind ``sdssort serve`` / ``sdssort submit`` and the
in-process :class:`ServiceClient`.  See ``docs/service.md`` for the
protocol, the admission-control math, and the drain state machine.
"""

from .admission import (ADMISSION_CODES, DEFAULT_MEM_BUDGET,
                        DEFAULT_QUEUE_DEPTH, AdmissionController,
                        AdmissionDecision, estimate_job_bytes)
from .client import ServiceClient, ServiceError, SocketClient
from .daemon import serve_socket, serve_stdio
from .jsondoc import (JOB_SCHEMA, METRICS_SCHEMA, SORT_SCHEMA,
                      comparable, job_envelope, metrics_doc, sort_doc)
from .metrics import RUN_OUTCOMES, ServiceMetrics
from .queue import JOB_STATES, TERMINAL_STATES, Job, JobQueue
from .scheduler import Scheduler, ServiceState, SortService
from .slog import LOG_LEVELS, configure_logging, log_event, \
    service_logger
from .spec import (DEFAULT_PRIORITY, PRIORITIES, JobSpec,
                   JobValidationError)

__all__ = [
    "ADMISSION_CODES", "DEFAULT_MEM_BUDGET", "DEFAULT_PRIORITY",
    "DEFAULT_QUEUE_DEPTH", "JOB_SCHEMA", "JOB_STATES", "LOG_LEVELS",
    "METRICS_SCHEMA", "PRIORITIES", "RUN_OUTCOMES", "SORT_SCHEMA",
    "TERMINAL_STATES", "AdmissionController", "AdmissionDecision",
    "Job", "JobQueue", "JobSpec", "JobValidationError",
    "Scheduler", "ServiceClient", "ServiceError", "ServiceMetrics",
    "ServiceState", "SocketClient", "SortService", "comparable",
    "configure_logging", "estimate_job_bytes", "job_envelope",
    "log_event", "metrics_doc", "serve_socket", "serve_stdio",
    "service_logger", "sort_doc",
]
