// Lemma 6 — pairwise stability windows of cycles C_n.
//
// The paper gives closed-form windows per residue of n mod 4 and claims
// rho(C_n) = O(1). This harness reports the EXACT measured window next to
// the paper's formulas. Even n match the paper exactly; for odd n the
// measured endpoints differ from the printed formulas (the measured
// alpha_max is (n-1)^2/4, not (n+1)(n-1)/4) — see EXPERIMENTS.md.
#include <cmath>
#include <iostream>

#include "bnf.hpp"

namespace {

// The paper's window for C_n, as the open interval it states.
bnf::alpha_interval lemma6_formula(long long n) {
  bnf::alpha_interval window;
  if (n % 4 == 2) {
    window.lo = bnf::rational::make(n * n - 4 * n + 4, 8);
    window.hi = bnf::rational::make(n * (n - 2), 4);
  } else if (n % 4 == 0) {
    window.lo = bnf::rational::make(n * n - 4 * n + 8, 8);
    window.hi = bnf::rational::make(n * (n - 2), 4);
  } else {
    window.lo = bnf::rational::make((n - 3) * (n + 1), 8);
    window.hi = bnf::rational::make((n + 1) * (n - 1), 4);
  }
  window.hi_closed = false;
  return window;
}

}  // namespace

int main(int argc, char** argv) {
  bnf::arg_parser args("bench_lemma6_cycles",
                       "Lemma 6: cycle stability windows, measured vs the "
                       "paper's closed forms, and PoA(C_n) = O(1)");
  args.add_int("n-min", 4, "smallest cycle");
  args.add_int("n-max", 28, "largest cycle");
  if (args.parse(argc, argv) == bnf::parse_status::help_requested) {
    std::cout << args.usage();
    return 0;
  }

  bnf::text_table table({"n", "measured window", "paper window", "match",
                         "linkconvex", "alpha*", "PoA(C_n)", "PoA trend"});

  for (int n = static_cast<int>(args.get_int("n-min"));
       n <= static_cast<int>(args.get_int("n-max")); ++n) {
    const bnf::graph g = bnf::cycle(n);
    const bnf::alpha_interval window = bnf::compute_stability_record(g);
    const bnf::alpha_interval paper = lemma6_formula(n);
    const bool match = window.lo == paper.lo && window.hi == paper.hi;

    const double alpha = (window.lo.to_double() + window.hi.to_double()) / 2.0;
    const bnf::connection_game game{n, alpha, bnf::link_rule::bilateral};
    const double poa = bnf::price_of_anarchy(g, game);

    table.add_row(
        {std::to_string(n),
         bnf::to_string(window), bnf::to_string(paper),
         match ? "yes" : "NO (see EXPERIMENTS.md)",
         bnf::is_link_convex(g) ? "yes" : "no", bnf::fmt_double(alpha, 2),
         bnf::fmt_double(poa, 4),
         poa < 2.0 ? "O(1) bounded" : "grows"});
  }

  std::cout << "=== Lemma 6: cycle C_n stability windows and PoA ===\n";
  table.print(std::cout);
  std::cout << "\nPaper claim: C_n pairwise stable for the printed window and "
               "rho(C_n) = O(1).\nMeasured windows are exact; PoA at the "
               "window midpoint stays bounded as n grows.\n";
  return 0;
}
