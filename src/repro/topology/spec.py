from repro.sim.multicache import TopologySpec as TopologySpec  # bench/workloads.py imports it here
