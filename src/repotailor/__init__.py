"""repotailor: personalized code-completion datasets from repository
histories, plus the evaluation and comparison tooling to go with them.
"""
