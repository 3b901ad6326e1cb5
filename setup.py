"""Package metadata (there is no pyproject.toml; this file is the source).

The simulator, protocol stack and linter are pure standard library.  scipy is
needed only by the Figure-4 chi-square guideline simulation
(``repro.overlay.guideline.uniformity_pvalue``) and the binomial robustness
analysis (``repro.analysis.robustness``, which the fault matrix's rows and the
figure benchmarks call); both import it on first use — hence an extra, not a
requirement.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Reproduction of Atum: Scalable Group Communication Using Volatile Groups",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    extras_require={
        "analysis": ["scipy"],
        "test": ["pytest", "pytest-benchmark", "scipy"],
    },
)
