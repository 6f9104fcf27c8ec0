"""Set-up cost of one job: import hodgewalk and load every given input.

Usage: PYTHONPATH=src python3 perfbench/setup_child.py INPUT...

Loading is what every verb does before its own work starts: parse the
complex, build its double cover, and compute the path weights.
"""

import sys

from hodgewalk import cli, graded_cover

for path in sys.argv[1:]:
    cover, _ = cli.load_input(path)
    graded_cover.compute_path_weights(cover)
