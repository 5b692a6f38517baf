// Package determlint statically enforces sunfloor3d's determinism contract:
// for equal (CommGraph, Options) inputs the synthesis flow must produce
// byte-identical serialised Results, independent of parallelism, scheduling,
// caching, progress observation and host state. Every cache, golden test and
// property harness in the repo leans on that contract; this package makes the
// bug classes that have actually broken it (and their near misses) fail the
// build instead of a bisection.
//
// The suite has three analyzers, run by cmd/sunfloor-lint alongside go vet:
//
//   - maprange flags `for range` over a map in result-affecting packages.
//     Go randomises map iteration order per run, so any order-sensitive body
//     is a run-to-run difference waiting to surface. The canonical
//     collect-keys-then-sort idiom and the keyed scatter (`dst[k] = expr`)
//     are recognised as safe; anything else needs a written waiver.
//
//   - floataccum flags floating-point accumulation under unordered
//     iteration — a map range, a goroutine body, a sync callback. Float
//     addition is not associative, so folding the same operands in two
//     orders can differ in the last ULPs; in PR 3 exactly this shape steered
//     the partitioner's min-cut tie-breaks differently from run to run.
//
//   - wallclock forbids time.Now/Since/Until and the process-global
//     math/rand source in result-affecting packages. Explicitly seeded
//     generators (rand.New(rand.NewSource(seed))) are the supported idiom.
//
// Cache-key coverage — every option that can change the Result must feed the
// fingerprint — needs no analyzer. internal/memo's Key walks the
// communication graph and the options by reflection and hashes every exported
// field except the execution knobs listed, with written proofs, in its
// executionKnobs table; a field it cannot hash (a map, func, chan or
// interface) makes it panic. TestKeyCoversEveryLeaf flips every reachable
// leaf and requires each flip to move the key while knob flips do not, and
// TestExecutionKnobsAreFields requires every knob entry to name a real field
// and carry a justification.
//
// The result-affecting set is the facade package plus the internal packages
// whose output feeds the serialised Result (see resultAffectingInternal);
// the server, benchmark harnesses, experiments and commands are exempt.
//
// # Waivers
//
// A finding whose site is provably order-independent (or whose timing never
// reaches the Result) is waived in place, with a mandatory justification:
//
//	//determlint:ordered <reason>   — honoured by maprange and floataccum
//	//determlint:wallclock <reason> — honoured by wallclock
//
// A directive at the end of a code line waives that line; on its own line it
// waives the line below; in a function's doc comment it waives the whole
// body. Unknown directive names and missing reasons are themselves findings,
// so waivers cannot rot silently.
//
// The analyzers are written against the go/analysis-shaped mini framework in
// the analysis subpackage (stdlib-only; see its docs), so porting to
// golang.org/x/tools/go/analysis if that dependency ever lands is a
// mechanical import swap.
package determlint
