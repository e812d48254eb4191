"""What is left of the retired shared-nothing shard path.

Only its ``merge`` module remains, and only because the benchmark's
traced ``shard.merge_us`` probe (``bench/rep.py``) imports its three
names.  The million-viewer figures come from one process running one
deployment (``repro.experiments.scale.run_scale_point`` with
``flyweight=True``).  Once the benchmark drops the probe, this package
goes.
"""
