/**
 * @file
 * neurolint rule engine: project-specific correctness rules that no
 * compiler checks. The rules encode the invariants the parallel and
 * event-driven subsystems rely on (see docs/static_analysis.md):
 *
 *  - R1 `rand`:        no rand()/srand()/std::random_device outside
 *                      common/rng.* — all randomness flows through the
 *                      deterministic neuro::Rng streams.
 *  - R2 `rng-stream`:  no raw `new Rng` and no Rng construction or
 *                      Rng& sharing inside parallelFor / parallelForRange
 *                      / parallelMap lambdas unless the seed derives via
 *                      deriveStreamSeed() — per-sample streams are what
 *                      keep results bit-identical at any thread count.
 *  - R3 `io`:          no std::cout/std::cerr outside common/logging.*,
 *                      the CLI (tools/), benches and examples — library
 *                      code reports through logging/stats/trace sinks.
 *  - R4 `pragma-once`: every header has #pragma once; with
 *                      --self-sufficiency each header under src/neuro
 *                      must also compile standalone.
 *  - R5 `ordered-sum`: loops tagged `// neurolint: ordered-sum` must
 *                      accumulate in double only — no float accumulators
 *                      or float casts mid-sum, which would break the
 *                      present()/presentImage() bit-identical contract.
 *  - R6 `raw-mutex`:   no raw std::mutex / std::shared_mutex /
 *                      std::condition_variable in library code — use
 *                      the annotated neuro::Mutex/CondVar wrappers
 *                      (common/mutex.h) that Clang -Wthread-safety
 *                      understands. Tests/benches/examples/tools are
 *                      exempt.
 *  - R7 `manual-lock`: no naked .lock()/.unlock()/.try_lock() member
 *                      calls outside the wrapper — critical sections
 *                      are scoped with MutexGuard (RAII).
 *  - R8 `atomic-order`: every std::atomic load/store/RMW passes an
 *                      explicit std::memory_order (relaxed for
 *                      counters, acquire/release for publication);
 *                      bare seq_cst defaults hide the contract.
 *
 * Suppression: `// neurolint: allow(R1)` (or a comma list) on the same
 * or the preceding line silences those rules for that line. A baseline
 * file of `<rule> <path-suffix>` entries downgrades pre-existing
 * findings so the gate starts green and ratchets.
 */

#pragma once

#include <set>
#include <string>
#include <vector>

namespace neurolint {

struct Finding
{
    std::string rule;    // "R1".."R8"
    std::string file;
    int line;
    std::string message;
    bool baselined = false;
};

/** Run all token-level rules (R1-R8 minus self-sufficiency) over one
 *  source buffer. `path` drives the per-file exemptions. */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &content);

/** R4b: compile `header` standalone (`$CXX -fsyntax-only`) against
 *  `includeRoot`; returns a finding on failure. Requires a compiler on
 *  PATH (CXX env var, else c++). */
std::vector<Finding> checkSelfSufficient(const std::string &header,
                                         const std::string &includeRoot);

/** Baseline entries are "<rule> <path-suffix>" lines; '#' comments and
 *  blank lines are ignored. */
std::set<std::string> loadBaseline(const std::string &path);

/** Mark findings whose (rule, path) matches a baseline entry by path
 *  suffix, so checked-out-anywhere trees still match. */
void applyBaseline(std::vector<Finding> &findings,
                   const std::set<std::string> &baseline);

/** The "<rule> <path>" key a finding would need in the baseline. */
std::string baselineKey(const Finding &f);

} // namespace neurolint
