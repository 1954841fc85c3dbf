"""Full-precision pins of the executor and of `check_equivalence`.

The CLI pins print fidelities to 12 digits, which hides a change in the last
bits of a state.  These hash the exact bytes instead: `execute`'s final
state, the `repr` of its frame, outcomes and residues, and the `repr` of
every fidelity `check_equivalence` reports, for a passing program and for
a corrupted one whose fidelities are far from 1.
"""
import hashlib

import numpy as np
import pytest

from qmarket.cli import _corrupt
from qmarket.compiler import (
    check_equivalence,
    compile_to_measurements,
    execute,
    parse_circuit,
    trial_seed,
)
from qmarket.statevec import random_state

CIRCUITS = {
    "bell": "qubits 2\nh 0\ncnot 0 1\n",
    "eight_gate": "qubits 3\nh 0\nt 0\ncnot 0 1\nh 1\nt 2\ncnot 1 2\nh 2\nt 1\n",
    "ch": "qubits 2\nch 0 1\n",
}

EXECUTE_DIGESTS = {
    ("bell", "extended"):
        "b0b593da76a8b934b07ff385f2ac75840a0c744d9c4d206a6fdc1b157f440c28",
    ("bell", "strict"):
        "3183b3f4286be02004f0cdc955effff82db4d58a5d6b466561d90f0901d597e0",
    ("eight_gate", "extended"):
        "c57f139367fb7bed214d03d597e02af25160944b153ef2c9acad4e1bde344742",
    ("eight_gate", "strict"):
        "86bcf9821e03fec4fe62256c188d6a0beecf1daf40d2c3f88ac73839691b759d",
    ("ch", "extended"):
        "323fa023610dd33d1669f5b00fd477cf53cce4363096be6533102109d1d3d74c",
    ("ch", "strict"):
        "73b52971e5b1031da0f848535dd85f4fb0f4d1f6acd770b6315d9f0c4827ed6e",
}

EQUIVALENCE_DIGESTS = {
    ("bell", "extended"):
        "01531f139637c87f78377efdd5767fb23e1f435785aeed63dda7423ee0982a3f",
    ("bell", "strict"):
        "bbfb98d8f1d6108037dac54263eb0f533fa7f188ddec1ebad210a330e0c66d03",
    ("eight_gate", "extended"):
        "a2da590dd7b1b65764d195cb1397e976d1bbdb60bd9c70cc02c827100b6ae32c",
    ("eight_gate", "strict"):
        "1717be37695e3c5f048f5ad529a8d405d119ffd43db2b7913aea158f0ab3edef",
    ("ch", "extended"):
        "143e54ce780501c7eb96e38154650b28206711bcc91698b6d4e2f6776a38e811",
    ("ch", "strict"):
        "0dab12d3bde85cee08f93dea339ed3c7427b3d8a5572efac8753ed0e1f0633df",
}


def compiled(name, mode):
    circuit = parse_circuit(CIRCUITS[name])
    return circuit, compile_to_measurements(circuit, mode)


def execute_digest(name, mode):
    circuit, program = compiled(name, mode)
    h = hashlib.sha256()
    for t in range(12):
        state = random_state(circuit.n_qubits, np.random.default_rng(trial_seed(21, t, 0)))
        record = execute(program, state, trial_seed(21, t, 1))
        h.update(record.final_state.amplitudes.tobytes())
        h.update(repr((record.frame, list(record.outcomes.items()),
                       record.ancilla_residues)).encode())
    return h.hexdigest()


def equivalence_digest(name, mode):
    circuit, program = compiled(name, mode)
    h = hashlib.sha256()
    for checked, trials in ((program, 40), (_corrupt(program), 24)):
        report = check_equivalence(circuit, checked, trials=trials, tol=1e-9, base_seed=22)
        h.update(repr((report.fidelities, report.min_fidelity, report.failing_trials,
                       report.outcome_counts)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, mode", sorted(EXECUTE_DIGESTS))
def test_execute_bytes(name, mode):
    assert execute_digest(name, mode) == EXECUTE_DIGESTS[(name, mode)]


@pytest.mark.parametrize("name, mode", sorted(EQUIVALENCE_DIGESTS))
def test_check_equivalence_fidelity_reprs(name, mode):
    assert equivalence_digest(name, mode) == EQUIVALENCE_DIGESTS[(name, mode)]
