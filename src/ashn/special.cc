#include "special.hh"

#include <cmath>
#include <stdexcept>

namespace crisc {
namespace ashn {

namespace {

constexpr double kPi = M_PI;

} // namespace

WeylPoint
cnotPoint()
{
    return {kPi / 4.0, 0.0, 0.0};
}

WeylPoint
swapPoint()
{
    return {kPi / 4.0, kPi / 4.0, kPi / 4.0};
}

WeylPoint
bGatePoint()
{
    return {kPi / 4.0, kPi / 8.0, 0.0};
}

GateParams
cnotClassParams(double h)
{
    checkControls("cnotClassParams", h, 0.0);
    const double sm = std::sqrt(16.0 - (1.0 - h) * (1.0 - h));
    const double sp = std::sqrt(16.0 - (1.0 + h) * (1.0 + h));
    // A1 = -(sm + sp)/2, A2 = -(sm - sp)/2; convert through Eq. (4.2).
    const double omega1 = sm / 4.0;
    const double omega2 = sp / 4.0;
    return GateParams{SubScheme::ND, kPi / 2.0, omega1, omega2, 0.0, h};
}

GateParams
swapClassParams(double h)
{
    return synthesize(swapPoint(), h, 0.0);
}

GateParams
bClassParams(double h)
{
    return synthesize(bGatePoint(), h, 0.0);
}

double
driveBound(double r)
{
    if (r <= 0.0)
        throw std::invalid_argument("driveBound: requires r > 0");
    return kPi / r + 0.5;
}

double
averageGateTime(double r)
{
    const double c = std::cos(4.0 * r);
    const double term1 =
        225.0 * (-176.0 * r * r + 96.0 * kPi * r - 105.0) * c;
    const double term2 =
        50.0 * (-576.0 * r * r + 576.0 * kPi * r - 30.0 * std::cos(6.0 * r) +
                252.0 * kPi * kPi + 97.0);
    const double pm2r = kPi - 2.0 * r;
    const double term3 =
        60.0 * (480.0 * pm2r * std::sin(r) - 603.0 * pm2r * std::sin(2.0 * r) -
                128.0 * pm2r * std::sin(3.0 * r) +
                30.0 * (19.0 * kPi - 33.0 * r) * std::sin(4.0 * r) -
                480.0 * pm2r * std::sin(5.0 * r) +
                65.0 * pm2r * std::sin(6.0 * r));
    const double tail = -59049.0 * std::cos(4.0 * r / 3.0) +
                        51708.0 * std::cos(2.0 * r) +
                        9216.0 * std::cos(3.0 * r) +
                        15360.0 * std::cos(5.0 * r);
    return (term1 + term2 + term3 + tail) / (28800.0 * kPi);
}

double
driveBoundGeneral(double h)
{
    const double ah = std::abs(h);
    if (ah >= 1.0)
        throw std::invalid_argument("driveBoundGeneral: requires |h| < 1");
    return 2.0 * (1.0 + ah) / (1.0 - ah) + 0.5;
}

} // namespace ashn
} // namespace crisc
