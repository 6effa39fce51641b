"""Wall-clock benchmark of the federated XQuery system.

``python3 wallbench/run.py --workload <name>`` measures one workload;
see ``wallbench/README.md`` for the workloads, metrics and sizing.
"""
