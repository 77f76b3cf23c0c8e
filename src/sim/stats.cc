#include "sim/stats.hh"

#include <algorithm>

namespace flashsim
{

void
Distribution::sample(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    last_ = v;
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = min_ = max_ = last_ = 0.0;
}

double
pct(double num, double denom)
{
    return denom != 0.0 ? 100.0 * num / denom : 0.0;
}

double
ratio(double num, double denom)
{
    return denom != 0.0 ? num / denom : 0.0;
}

} // namespace flashsim
