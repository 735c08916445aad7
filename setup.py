"""Setup shim so that editable installs work with the offline legacy toolchain."""
from setuptools import find_namespace_packages, setup

setup(
    name="repro-hw-unbounded",
    version="0.1.0",
    description=(
        "Reproduction of 'Unbounded safety verification for hardware using "
        "software analyzers': SAT-based word/bit-level model checking engines"
    ),
    package_dir={"": "src"},
    # src/repro has no __init__.py, so plain find_packages finds nothing
    packages=find_namespace_packages("src", include=["repro", "repro.*"]),
    python_requires=">=3.9",
    extras_require={"dev": ["pytest"]},
    entry_points={
        "console_scripts": [
            "repro-bench = repro.tools.bench:main",
            "repro-cache = repro.tools.cache_cli:main",
            "repro-serve = repro.tools.serve_cli:main",
            "repro-trace = repro.tools.trace_cli:main",
            "repro-verify = repro.tools.verify_cli:main",
        ]
    },
)
