#include "equilibria/alpha_interval.hpp"

#include <algorithm>

namespace bnf {

namespace {

/// Does `a` end strictly before `b` begins, leaving a gap (so their union
/// is not contiguous)? Touching endpoints close the gap when either side
/// includes the touch point.
bool gap_between(const alpha_interval& a, const alpha_interval& b) {
  const int cmp = compare(a.hi, b.lo);
  if (cmp != 0) return cmp < 0;
  return !a.hi_closed && !b.lo_closed;
}

/// Endpoint orderings that treat closedness as a tiebreak: a closed lower
/// endpoint starts "earlier" than an open one at the same value, a closed
/// upper endpoint ends "later".
bool lo_before(const rational& a, bool a_closed, const rational& b,
               bool b_closed) {
  const int cmp = compare(a, b);
  return cmp != 0 ? cmp < 0 : (a_closed && !b_closed);
}

bool hi_after(const rational& a, bool a_closed, const rational& b,
              bool b_closed) {
  const int cmp = compare(a, b);
  return cmp != 0 ? cmp > 0 : (a_closed && !b_closed);
}

}  // namespace

alpha_interval alpha_interval::empty_interval() {
  return {rational::from_int(0), rational::from_int(0), false, true};
}

bool alpha_interval::contains(const rational& alpha) const {
  if (alpha.is_infinite() || alpha.num <= 0) return false;
  const int at_lo = compare(alpha, lo);
  if (at_lo < 0 || (at_lo == 0 && !lo_closed)) return false;
  const int at_hi = compare(alpha, hi);
  return at_hi < 0 || (at_hi == 0 && hi_closed && !hi.is_infinite());
}

bool alpha_interval::contains(double alpha) const {
  if (!(alpha > 0)) return false;
  const int at_lo = compare(lo, alpha);  // lo vs alpha
  if (at_lo > 0 || (at_lo == 0 && !lo_closed)) return false;
  const int at_hi = compare(hi, alpha);
  return at_hi > 0 || (at_hi == 0 && hi_closed && !hi.is_infinite());
}

alpha_interval alpha_interval::intersect(const alpha_interval& other) const {
  alpha_interval result;
  if (lo_before(lo, lo_closed, other.lo, other.lo_closed)) {
    result.lo = other.lo;
    result.lo_closed = other.lo_closed;
  } else {
    result.lo = lo;
    result.lo_closed = lo_closed;
  }
  if (hi_after(hi, hi_closed, other.hi, other.hi_closed)) {
    result.hi = other.hi;
    result.hi_closed = other.hi_closed;
  } else {
    result.hi = hi;
    result.hi_closed = hi_closed;
  }
  return result;
}

bool alpha_interval::connects(const alpha_interval& other) const {
  return !gap_between(*this, other) && !gap_between(other, *this);
}

std::string to_string(const alpha_interval& interval) {
  if (interval.empty()) return "{}";
  std::string out;
  out += interval.lo_closed ? '[' : '(';
  out += to_string(interval.lo);
  out += ", ";
  out += to_string(interval.hi);
  out += (interval.hi_closed && !interval.hi.is_infinite()) ? ']' : ')';
  return out;
}

void alpha_interval_set::add(alpha_interval interval) {
  if (interval.empty()) return;
  // Parts are sorted and pairwise non-touching, so the components that
  // overlap or touch the newcomer form one contiguous run: widen the
  // newcomer to their hull and splice it in place of the run. In-place so
  // the hot region-search path performs no allocation once the vector has
  // warmed up.
  auto first = parts_.begin();
  while (first != parts_.end() && gap_between(*first, interval)) ++first;
  auto last = first;
  while (last != parts_.end() && last->connects(interval)) {
    if (lo_before(last->lo, last->lo_closed, interval.lo,
                  interval.lo_closed)) {
      interval.lo = last->lo;
      interval.lo_closed = last->lo_closed;
    }
    if (hi_after(last->hi, last->hi_closed, interval.hi,
                 interval.hi_closed)) {
      interval.hi = last->hi;
      interval.hi_closed = last->hi_closed;
    }
    ++last;
  }
  if (first == last) {
    parts_.insert(first, interval);
  } else {
    *first = interval;
    parts_.erase(first + 1, last);
  }
}

bool alpha_interval_set::contains(const rational& alpha) const {
  return std::any_of(
      parts_.begin(), parts_.end(),
      [&](const alpha_interval& part) { return part.contains(alpha); });
}

bool alpha_interval_set::contains(double alpha) const {
  return std::any_of(
      parts_.begin(), parts_.end(),
      [&](const alpha_interval& part) { return part.contains(alpha); });
}

bool alpha_interval_set::covers(const alpha_interval& interval) const {
  if (interval.empty()) return true;
  return std::any_of(
      parts_.begin(), parts_.end(), [&](const alpha_interval& part) {
        return !lo_before(interval.lo, interval.lo_closed, part.lo,
                          part.lo_closed) &&
               !hi_after(interval.hi, interval.hi_closed, part.hi,
                         part.hi_closed);
      });
}

std::string to_string(const alpha_interval_set& set) {
  if (set.empty()) return "{}";
  std::string out;
  for (std::size_t i = 0; i < set.parts().size(); ++i) {
    if (i > 0) out += " | ";
    out += to_string(set.parts()[i]);
  }
  return out;
}

}  // namespace bnf
