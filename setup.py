"""Setup shim for editable installs on environments without the `wheel`
package (offline): keeps ``pip install -e .`` on the legacy setuptools
path, which needs no wheel building."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "NetScatter (NSDI 2019) reproduction: distributed CSS coding "
        "for large-scale backscatter networks"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=2.0", "scipy"],
)
