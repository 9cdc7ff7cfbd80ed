"""Toolkit for projecting frame features into a frozen text concept space,
training a latent-diffusion next-embedding model on top of that space, and
measuring how well the two spaces line up.

Everything runs in float64 on one CPU core and is deterministic under a seed.
"""

__version__ = "0.1.0"
