/**
 * @file
 * Calibrating the AshN instruction set (paper Sec. 5).
 *
 * Three stages:
 *  1. Pulse imperfection: a trapezoidal AWG envelope shifts the realized
 *     chamber point away from the target.
 *  2. Characterization: the Cartan double gamma(U) = U YY U^T YY turns
 *     interaction-coefficient readout into phase estimation, without
 *     learning the single-qubit corrections.
 *  3. Instruction-set calibration: a three-parameter transfer model is
 *     fitted once by black-box optimization and corrects the *entire*
 *     continuous gate family.
 */

#include <cstdio>

#include "ashn/scheme.hh"
#include "ashn/special.hh"
#include "calib/cartan.hh"
#include "calib/model.hh"
#include "calib/pulse.hh"
#include "weyl/measure.hh"
#include "linalg/random.hh"
#include "weyl/weyl.hh"

using namespace crisc;
using linalg::Matrix;
using weyl::WeylPoint;

int
main()
{
    linalg::Rng rng(11);

    // --- 1. Pulse distortion moves the gate.
    std::printf("1) AWG envelope distortion\n");
    const ashn::GateParams cnot = ashn::cnotClassParams(0.0);
    for (double rise : {0.0, 0.05, 0.15, 0.30}) {
        const auto hfun = calib::pulsedHamiltonian(
            0.0, cnot.omega1, cnot.omega2, cnot.delta,
            rise == 0.0 ? calib::EnvelopeShape::Square
                        : calib::EnvelopeShape::Trapezoid,
            cnot.tau, rise * cnot.tau);
        const Matrix u = calib::evolveTimeDependent(hfun, cnot.tau, 600);
        const WeylPoint got = weyl::weylCoordinates(u);
        std::printf("   rise %.0f%% of tau: coordinate error %.4f\n",
                    100.0 * rise,
                    weyl::pointDistance(got, ashn::cnotPoint()));
    }

    // --- 2. Cartan-double phase estimation.
    std::printf("\n2) interaction-coefficient readout via the Cartan "
                "double\n");
    const WeylPoint target{0.55, 0.40, 0.20};
    const Matrix gate = ashn::realize(ashn::synthesize(target, 0.0, 0.0));
    for (const auto &[bits, shots] :
         {std::pair{4, 100}, {6, 1000}, {8, 10000}}) {
        const WeylPoint est =
            calib::estimateCoordinates(gate, bits, shots, rng, &target);
        std::printf("   %d bits x %5d shots: estimate (%.4f, %.4f, %.4f), "
                    "error %.2e\n",
                    bits, shots, est.x, est.y, est.z,
                    weyl::pointDistance(est, target));
    }

    // --- 3. Model-based instruction-set calibration.
    std::printf("\n3) one model fit calibrates the whole gate family\n");
    const calib::ControlModel truth{1.06, 0.93, 1.09};
    const std::vector<WeylPoint> probes = {{M_PI / 4.0, 0.10, 0.05},
                                           {0.70, 0.65, 0.50},
                                           {0.50, 0.45, -0.35},
                                           {0.60, 0.55, 0.30}};
    const calib::CalibrationResult r =
        calib::calibrateInstructionSet(truth, probes, 0.0, 1.1);
    std::printf("   hardware gains (hidden): %.3f %.3f %.3f\n",
                truth.gainOmega1, truth.gainOmega2, truth.gainDelta);
    std::printf("   fitted gains:            %.3f %.3f %.3f  (%d "
                "objective evaluations)\n",
                r.fitted.gainOmega1, r.fitted.gainOmega2,
                r.fitted.gainDelta, r.evaluations);
    std::printf("   mean coordinate error: %.2e before -> %.2e after\n",
                r.objectiveBefore, r.objectiveAfter);

    // Held-out gates: the fit generalizes across the continuum.
    double heldOut = 0.0;
    std::vector<WeylPoint> held;
    for (int i = 0; i < 5; ++i)
        held.push_back(weyl::sampleChamber(rng));
    heldOut = calib::modelObjective(r.fitted, truth, held, 0.0, 1.1);
    std::printf("   held-out gates (5 random): mean error %.2e\n", heldOut);
    return heldOut < 1e-3 ? 0 : 1;
}
