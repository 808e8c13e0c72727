"""Path-based complexity norms for small neural networks.

Submodules:
    activations  scalar activations, gamma norms, Lipschitz constant
    relu1d       certified one-dimensional ReLU approximants
    twolayer     two-layer nets, path norms, rewriting, integral reps
    resnet       residual nets, weighted path norms, embeddings
    bounds       Rademacher / posterior / a-priori bound formulas
    train        path-norm regularized least squares
    serialize    model JSON input and output
    cli          command line front end
"""

__version__ = "0.1.0"
