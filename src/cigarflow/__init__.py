"""cigarflow: 2-D Ricci flow in conformal gauge, centered on the cigar soliton.

Submodules (import directly, e.g. ``from cigarflow import flow``):

    cigar       closed-form cigar/soliton evaluators (the test oracle)
    geometry    the radial grid, conformal states, discrete Laplacians, curvature,
                the Ricci potential in closed form, width estimators
    flow        time integration of the log factor, monitors,
                normalization, the Kahler-potential cross-check
    scenarios   declarative scenario configs and initial-data construction
    diagnostics per-step scalar records and their CSV form
    snapshots   text snapshots for exact resume
    cli         `cigarflow` command line driver
"""

__version__ = "0.1.0"
