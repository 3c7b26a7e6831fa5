"""Open planar billiards on convex disks: periodic orbits, stability,
pressure abscissas, orbit Dirichlet series, determinant resonances, and
length-spectrum test functions.  Each name is imported from its module."""

__version__ = "0.1.0"
