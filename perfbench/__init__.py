"""Host-wall benchmark of the ``repro`` package.

Three workloads (``numeric-sedov``, ``model-campaign``,
``service-mixed``) measured end to end with tracing off, plus a traced
run that attributes wall time to the package's layers. Entry point:
``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>``; see ``perfbench/README.md``.
"""

from . import model_campaign, numeric_sedov, service_mixed

WORKLOADS = {
    module.NAME: module
    for module in (numeric_sedov, model_campaign, service_mixed)
}
