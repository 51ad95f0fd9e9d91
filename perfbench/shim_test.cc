/**
 * @file
 * Self-time accounting on a synthetic nested call tree with known
 * times. Exits non-zero on the first wrong total.
 */

#include <cstdio>

#include "self_time.hh"

namespace
{

int failures = 0;

void
expect(const char *what, long long got, long long want)
{
    if (got != want) {
        std::fprintf(stderr, "FAIL %s: got %lld, want %lld\n", what, got,
                     want);
        ++failures;
    }
}

} // namespace

int
main()
{
    enum
    {
        A,
        B,
        C,
        kEntries
    };
    perfbench::SelfTimeAccounting acct(kEntries);

    // A [0, 100) holds B [10, 40), which holds C [20, 30), and a
    // second B [50, 60). A lone C [200, 205) follows at top level.
    acct.enter(A, 0);
    acct.enter(B, 10);
    acct.enter(C, 20);
    acct.leave(30);
    acct.leave(40);
    acct.enter(B, 50);
    acct.leave(60);
    acct.leave(100);
    acct.enter(C, 200);
    acct.leave(205);

    expect("depth", static_cast<long long>(acct.depth()), 0);
    expect("A calls", static_cast<long long>(acct.totals(A).calls), 1);
    expect("A total", acct.totals(A).totalNs, 100);
    expect("A self", acct.totals(A).selfNs, 60);
    expect("B calls", static_cast<long long>(acct.totals(B).calls), 2);
    expect("B total", acct.totals(B).totalNs, 40);
    expect("B self", acct.totals(B).selfNs, 30);
    expect("C calls", static_cast<long long>(acct.totals(C).calls), 2);
    expect("C total", acct.totals(C).totalNs, 15);
    expect("C self", acct.totals(C).selfNs, 15);
    expect("covered", acct.coveredNs(), 105);
    expect("self sum == covered",
           acct.totals(A).selfNs + acct.totals(B).selfNs +
               acct.totals(C).selfNs,
           acct.coveredNs());

    if (failures == 0)
        std::printf("shim_test: self-time accounting OK\n");
    return failures == 0 ? 0 : 1;
}
