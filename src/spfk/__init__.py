"""Exact computer-algebra kernel: shuffle algebras, (hyper)Pfaffian and
(hyper)hafnian expansions, and a verification suite that machine-checks a
catalogue of classical identities with exact arithmetic.  The Grassmann and
square-zero algebras serve the independent power oracles of the kernels."""
