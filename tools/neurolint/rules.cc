#include "neurolint/rules.h"

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "neurolint/lexer.h"

namespace neurolint {

namespace {

bool
contains(const std::string &s, const std::string &needle)
{
    return s.find(needle) != std::string::npos;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
isHeaderPath(const std::string &path)
{
    return endsWith(path, ".h") || endsWith(path, ".hpp");
}

/** Files allowed to touch the raw C/std random sources (R1). */
bool
rngExempt(const std::string &path)
{
    return contains(path, "common/rng.");
}

/** Files allowed to write to std::cout / std::cerr directly (R3):
 *  the logging sink itself, CLI tools, benches and examples. Library
 *  code under src/ and tests report through logging/stats/trace. */
bool
ioExempt(const std::string &path)
{
    // Fixture snippets stand in for library code even though they
    // live under tools/neurolint/fixtures.
    if (contains(path, "fixtures/"))
        return false;
    return contains(path, "common/logging.") ||
           contains(path, "tools/") || contains(path, "bench/") ||
           contains(path, "examples/");
}

/** Files exempt from the concurrency rules (R6-R8). Tests, benches,
 *  examples and tools exercise raw primitives and default orderings
 *  on purpose (e.g. stress harnesses poking std::mutex directly);
 *  library code under src/ must go through the annotated wrappers.
 *  common/mutex.h is the one sanctioned user of the raw primitives —
 *  it is what wraps them. Fixture snippets stand in for library code
 *  even though they live under tools/. */
bool
concurrencyExempt(const std::string &path)
{
    if (contains(path, "fixtures/"))
        return false;
    return contains(path, "tests/") || contains(path, "bench/") ||
           contains(path, "examples/") || contains(path, "tools/") ||
           contains(path, "common/mutex.");
}

/** Per-line suppressions: `// neurolint: allow(R1,R3)` silences those
 *  rules on its own line and on the line that follows. */
struct Directives
{
    std::map<int, std::set<std::string>> allow; // line -> rules
    std::vector<int> orderedSumTags;            // tag comment lines
};

Directives
parseDirectives(const std::vector<Token> &toks)
{
    Directives d;
    for (const Token &t : toks) {
        if (t.kind != TokKind::Comment)
            continue;
        const std::size_t at = t.text.find("neurolint:");
        if (at == std::string::npos)
            continue;
        const std::string rest = t.text.substr(at + 10);
        if (contains(rest, "ordered-sum")) {
            d.orderedSumTags.push_back(t.line);
            continue;
        }
        const std::size_t open = rest.find("allow(");
        if (open == std::string::npos)
            continue;
        const std::size_t close = rest.find(')', open);
        if (close == std::string::npos)
            continue;
        std::string list = rest.substr(open + 6, close - open - 6);
        for (char &c : list) {
            if (c == ',')
                c = ' ';
            else
                c = static_cast<char>(std::toupper(
                    static_cast<unsigned char>(c)));
        }
        std::istringstream in(list);
        std::string rule;
        while (in >> rule) {
            d.allow[t.line].insert(rule);
            d.allow[t.line + 1].insert(rule);
        }
    }
    return d;
}

bool
suppressed(const Directives &d, const std::string &rule, int line)
{
    const auto it = d.allow.find(line);
    return it != d.allow.end() && it->second.count(rule) > 0;
}

/** Index of the punct matching the opener at `open` (which must be a
 *  '(' or '{'), or toks.size() when unbalanced. */
std::size_t
matchExtent(const std::vector<Token> &toks, std::size_t open)
{
    const std::string opener = toks[open].text;
    const std::string closer = (opener == "(") ? ")" : "}";
    int depth = 0;
    for (std::size_t k = open; k < toks.size(); ++k) {
        if (toks[k].kind != TokKind::Punct)
            continue;
        if (toks[k].text == opener)
            ++depth;
        else if (toks[k].text == closer && --depth == 0)
            return k;
    }
    return toks.size();
}

bool
isIdent(const Token &t, const char *spelling)
{
    return t.kind == TokKind::Identifier && t.text == spelling;
}

bool
isPunct(const Token &t, char c)
{
    return t.kind == TokKind::Punct && t.text[0] == c;
}

void
emit(std::vector<Finding> &out, const Directives &d,
     const std::string &rule, const std::string &path, int line,
     const std::string &message)
{
    if (suppressed(d, rule, line))
        return;
    out.push_back({rule, path, line, message});
}

/** R1: rand()/srand()/std::random_device outside common/rng.*. */
void
ruleRand(const std::vector<Token> &code, const std::string &path,
         const Directives &d, std::vector<Finding> &out)
{
    if (rngExempt(path))
        return;
    for (std::size_t k = 0; k < code.size(); ++k) {
        const Token &t = code[k];
        if (t.kind != TokKind::Identifier)
            continue;
        // Member access (x.rand(), x->rand()) is someone else's API.
        const bool member =
            k > 0 && (isPunct(code[k - 1], '.') ||
                      isPunct(code[k - 1], '>'));
        // Qualified: only std:: counts as the libc/std generator.
        bool qualified = false, stdQualified = false;
        if (k >= 2 && isPunct(code[k - 1], ':') &&
            isPunct(code[k - 2], ':')) {
            qualified = true;
            stdQualified = k >= 3 && isIdent(code[k - 3], "std");
        }
        if (t.text == "random_device") {
            if (!qualified || stdQualified) {
                emit(out, d, "R1", path, t.line,
                     "std::random_device is nondeterministic; seed a "
                     "neuro::Rng stream instead");
            }
            continue;
        }
        if ((t.text == "rand" || t.text == "srand") && !member &&
            (!qualified || stdQualified) && k + 1 < code.size() &&
            isPunct(code[k + 1], '(')) {
            emit(out, d, "R1", path, t.line,
                 t.text + "() bypasses the deterministic neuro::Rng "
                 "streams (common/rng.h)");
        }
    }
}

/** R2: Rng discipline inside the data-parallel primitives. Each index
 *  must draw from its own deriveStreamSeed()-derived stream; a shared
 *  generator makes results depend on chunk scheduling. parallelInvoke
 *  is exempt: its tasks are heterogeneous units with disjoint seeds. */
void
ruleRngStream(const std::vector<Token> &code, const std::string &path,
              const Directives &d, std::vector<Finding> &out)
{
    for (std::size_t k = 0; k + 1 < code.size(); ++k) {
        if (!(isIdent(code[k], "parallelFor") ||
              isIdent(code[k], "parallelForRange") ||
              isIdent(code[k], "parallelMap")) ||
            !isPunct(code[k + 1], '('))
            continue;
        const std::string prim = code[k].text;
        const std::size_t close = matchExtent(code, k + 1);
        for (std::size_t j = k + 2; j < close; ++j) {
            if (isIdent(code[j], "new") && j + 1 < close &&
                isIdent(code[j + 1], "Rng")) {
                emit(out, d, "R2", path, code[j].line,
                     "raw `new Rng` inside " + prim +
                     " — construct per-index Rng(deriveStreamSeed(...))");
                continue;
            }
            if (!isIdent(code[j], "Rng"))
                continue;
            if (j + 1 < close && isPunct(code[j + 1], '&')) {
                emit(out, d, "R2", path, code[j].line,
                     "shared Rng& inside " + prim +
                     " — one generator across indices breaks "
                     "thread-count determinism");
                continue;
            }
            // Rng ident(...) / Rng ident{...}: the seed expression
            // must flow through deriveStreamSeed().
            if (j + 2 < close &&
                code[j + 1].kind == TokKind::Identifier &&
                (isPunct(code[j + 2], '(') ||
                 isPunct(code[j + 2], '{'))) {
                const std::size_t argsClose = matchExtent(code, j + 2);
                bool derived = false;
                for (std::size_t a = j + 3; a < argsClose; ++a) {
                    if (isIdent(code[a], "deriveStreamSeed"))
                        derived = true;
                }
                if (!derived) {
                    emit(out, d, "R2", path, code[j].line,
                         "Rng constructed inside " + prim +
                         " without deriveStreamSeed() — the stream "
                         "must be keyed by index, not by shard");
                }
            }
        }
        k = close;
    }
}

/** R3: direct std::cout/std::cerr outside the sanctioned writers. */
void
ruleIo(const std::vector<Token> &code, const std::string &path,
       const Directives &d, std::vector<Finding> &out)
{
    if (ioExempt(path))
        return;
    for (std::size_t k = 2; k < code.size(); ++k) {
        const Token &t = code[k];
        if (t.kind != TokKind::Identifier ||
            (t.text != "cout" && t.text != "cerr"))
            continue;
        if (isPunct(code[k - 1], ':') && isPunct(code[k - 2], ':') &&
            k >= 3 && isIdent(code[k - 3], "std")) {
            emit(out, d, "R3", path, t.line,
                 "std::" + t.text + " outside common/logging, CLI and "
                 "benches — use inform()/warn() or a stats sink");
        }
    }
}

/** R4a: headers carry #pragma once. */
void
rulePragmaOnce(const std::vector<Token> &code, const std::string &path,
               const Directives &d, std::vector<Finding> &out)
{
    if (!isHeaderPath(path))
        return;
    for (std::size_t k = 0; k + 2 < code.size(); ++k) {
        if (isPunct(code[k], '#') && isIdent(code[k + 1], "pragma") &&
            isIdent(code[k + 2], "once"))
            return;
    }
    emit(out, d, "R4", path, 1,
         "header is missing #pragma once");
}

/** R5: `// neurolint: ordered-sum` tagged loops accumulate in double
 *  only. The SNN's present() and its presentImage() reference promise
 *  bit-identical sums because both read the same packed grid and add
 *  the same float weights into a double accumulator in emission order;
 *  a float accumulator or a float cast mid-sum silently re-rounds one
 *  side. */
void
ruleOrderedSum(const std::vector<Token> &code, const std::string &path,
               const Directives &d, std::vector<Finding> &out)
{
    if (d.orderedSumTags.empty())
        return;

    // Non-pointer float/double declarations, in token order; the map
    // reflects the latest declaration seen before each use.
    std::map<std::string, std::string> declType;

    std::size_t scanned = 0; // decls are folded in lazily up to here
    auto foldDecls = [&](std::size_t upTo) {
        for (; scanned < upTo && scanned + 1 < code.size(); ++scanned) {
            const Token &t = code[scanned];
            if ((isIdent(t, "float") || isIdent(t, "double")) &&
                code[scanned + 1].kind == TokKind::Identifier) {
                declType[code[scanned + 1].text] = t.text;
            }
        }
    };

    for (const int tagLine : d.orderedSumTags) {
        // The tag governs the next for/while loop.
        std::size_t loop = code.size();
        for (std::size_t k = 0; k < code.size(); ++k) {
            if (code[k].line > tagLine &&
                (isIdent(code[k], "for") || isIdent(code[k], "while"))) {
                loop = k;
                break;
            }
        }
        if (loop == code.size())
            continue;
        std::size_t open = loop + 1;
        if (open >= code.size() || !isPunct(code[open], '('))
            continue;
        const std::size_t headClose = matchExtent(code, open);
        std::size_t end = headClose;
        if (headClose + 1 < code.size() &&
            isPunct(code[headClose + 1], '{')) {
            end = matchExtent(code, headClose + 1);
        } else {
            for (end = headClose + 1;
                 end < code.size() && !isPunct(code[end], ';'); ++end) {
            }
        }
        foldDecls(loop);

        for (std::size_t j = loop; j < end && j < code.size(); ++j) {
            const Token &t = code[j];
            if (isIdent(t, "float")) {
                // `const float *row` reads floats — allowed. A float
                // value declaration or cast inside the sum is not.
                const bool pointer =
                    j + 1 < code.size() && isPunct(code[j + 1], '*');
                const bool cast =
                    (j >= 1 && isPunct(code[j - 1], '<') &&
                     j >= 2 && isIdent(code[j - 2], "static_cast")) ||
                    (j >= 1 && isPunct(code[j - 1], '(') &&
                     j + 1 < code.size() && isPunct(code[j + 1], ')'));
                if (cast) {
                    emit(out, d, "R5", path, t.line,
                         "float cast inside ordered-sum loop re-rounds "
                         "the accumulator — keep the sum in double");
                } else if (!pointer) {
                    emit(out, d, "R5", path, t.line,
                         "float declaration inside ordered-sum loop — "
                         "accumulate in double");
                }
                continue;
            }
            // ident += ... with a float-declared left-hand side.
            if (t.kind == TokKind::Identifier && j + 2 < code.size() &&
                isPunct(code[j + 1], '+') && isPunct(code[j + 2], '=')) {
                const auto it = declType.find(t.text);
                if (it != declType.end() && it->second == "float") {
                    emit(out, d, "R5", path, t.line,
                         "`" + t.text + "` accumulates in float inside "
                         "an ordered-sum loop — declare it double");
                }
            }
        }
    }
}

/** R6: raw standard mutex/CV types outside the annotated wrapper.
 *  neuro::Mutex / MutexGuard / CondVar (common/mutex.h) carry the
 *  Clang thread-safety capability attributes; a raw std::mutex member
 *  is invisible to -Wthread-safety, so nothing checks that its
 *  critical sections actually hold it. */
void
ruleRawMutex(const std::vector<Token> &code, const std::string &path,
             const Directives &d, std::vector<Finding> &out)
{
    if (concurrencyExempt(path))
        return;
    static const char *const kTypes[] = {
        "mutex",              "shared_mutex",
        "recursive_mutex",    "timed_mutex",
        "condition_variable", "condition_variable_any"};
    for (std::size_t k = 3; k < code.size(); ++k) {
        const Token &t = code[k];
        if (t.kind != TokKind::Identifier)
            continue;
        bool match = false;
        for (const char *name : kTypes)
            match = match || t.text == name;
        if (!match)
            continue;
        if (isPunct(code[k - 1], ':') && isPunct(code[k - 2], ':') &&
            isIdent(code[k - 3], "std")) {
            emit(out, d, "R6", path, t.line,
                 "raw std::" + t.text + " — use the annotated "
                 "neuro::Mutex/CondVar wrappers (common/mutex.h) so "
                 "the thread-safety analysis can see the lock");
        }
    }
}

/** R7: manual .lock()/.unlock() calls outside the wrapper. RAII
 *  (MutexGuard) keeps the release on every path — exceptions, early
 *  returns — and is the shape the thread-safety analysis verifies; a
 *  naked unlock() is exactly the leak the analysis exists to catch. */
void
ruleManualLock(const std::vector<Token> &code, const std::string &path,
               const Directives &d, std::vector<Finding> &out)
{
    if (concurrencyExempt(path))
        return;
    for (std::size_t k = 1; k + 2 < code.size(); ++k) {
        const Token &t = code[k];
        if (t.kind != TokKind::Identifier ||
            (t.text != "lock" && t.text != "unlock" &&
             t.text != "try_lock"))
            continue;
        // Member call: `x.lock()` / `x->lock()` ('-','>' tokens).
        if (!isPunct(code[k - 1], '.') && !isPunct(code[k - 1], '>'))
            continue;
        if (isPunct(code[k + 1], '(') && isPunct(code[k + 2], ')')) {
            emit(out, d, "R7", path, t.line,
                 "manual ." + t.text + "() — hold the mutex through a "
                 "scoped MutexGuard (common/mutex.h) instead");
        }
    }
}

/** R8: atomic operations must spell their memory_order. A bare
 *  x.load() defaults to seq_cst, which both hides the intended
 *  ordering contract from the reader and pays a full fence on
 *  weakly-ordered ISAs. Convention: relaxed for counters, documented
 *  acquire/release where a write publishes data (docs/
 *  static_analysis.md). */
void
ruleAtomicOrder(const std::vector<Token> &code, const std::string &path,
                const Directives &d, std::vector<Finding> &out)
{
    if (concurrencyExempt(path))
        return;

    // Names declared as std::atomic<...> in this file, so the
    // ambiguous `.load(args)` form can be receiver-checked —
    // `archive.load(path)` is a file load, not an atomic read.
    std::set<std::string> atomicNames;
    for (std::size_t k = 0; k + 1 < code.size(); ++k) {
        if (!isIdent(code[k], "atomic") || !isPunct(code[k + 1], '<'))
            continue;
        int depth = 0;
        std::size_t close = code.size();
        for (std::size_t j = k + 1; j < code.size(); ++j) {
            if (isPunct(code[j], '<')) {
                ++depth;
            } else if (isPunct(code[j], '>') && --depth == 0) {
                close = j;
                break;
            }
        }
        if (close + 1 < code.size() &&
            code[close + 1].kind == TokKind::Identifier)
            atomicNames.insert(code[close + 1].text);
    }

    static const char *const kOps[] = {
        "store",     "exchange",  "fetch_add",
        "fetch_sub", "fetch_and", "fetch_or",
        "fetch_xor", "compare_exchange_weak",
        "compare_exchange_strong", "test_and_set"};
    for (std::size_t k = 1; k + 1 < code.size(); ++k) {
        const Token &t = code[k];
        if (t.kind != TokKind::Identifier)
            continue;
        if (!isPunct(code[k - 1], '.') && !isPunct(code[k - 1], '>'))
            continue;
        if (!isPunct(code[k + 1], '('))
            continue;
        bool isOp = false;
        for (const char *op : kOps)
            isOp = isOp || t.text == op;
        const bool isLoad = t.text == "load";
        if (!isOp && !isLoad)
            continue;
        const std::size_t close = matchExtent(code, k + 1);
        bool ordered = false;
        bool hasArgs = false;
        for (std::size_t a = k + 2; a < close; ++a) {
            hasArgs = true;
            if (code[a].kind == TokKind::Identifier &&
                code[a].text.rfind("memory_order", 0) == 0)
                ordered = true;
        }
        if (ordered)
            continue;
        if (isLoad && hasArgs) {
            // An argument-taking load() is only atomic when the
            // receiver is a declared std::atomic in this file.
            const bool named = isPunct(code[k - 1], '.') && k >= 2 &&
                               code[k - 2].kind == TokKind::Identifier;
            if (!named || atomicNames.count(code[k - 2].text) == 0)
                continue;
        }
        emit(out, d, "R8", path, t.line,
             "atomic ." + t.text + "() without an explicit "
             "std::memory_order — spell the ordering (relaxed for "
             "counters, acquire/release for publication)");
    }
}

} // namespace

std::vector<Finding>
lintSource(const std::string &path, const std::string &content)
{
    const std::vector<Token> all = tokenize(content);
    const Directives d = parseDirectives(all);

    std::vector<Token> code;
    code.reserve(all.size());
    for (const Token &t : all) {
        if (t.kind != TokKind::Comment)
            code.push_back(t);
    }

    std::vector<Finding> out;
    ruleRand(code, path, d, out);
    ruleRngStream(code, path, d, out);
    ruleIo(code, path, d, out);
    rulePragmaOnce(code, path, d, out);
    ruleOrderedSum(code, path, d, out);
    ruleRawMutex(code, path, d, out);
    ruleManualLock(code, path, d, out);
    ruleAtomicOrder(code, path, d, out);
    return out;
}

std::vector<Finding>
checkSelfSufficient(const std::string &header,
                    const std::string &includeRoot)
{
    const char *cxxEnv = std::getenv("CXX");
    const std::string cxx = (cxxEnv && *cxxEnv) ? cxxEnv : "c++";
    const std::string cmd = cxx + " -std=c++20 -fsyntax-only -x c++ -I '" +
                            includeRoot + "' '" + header +
                            "' > /dev/null 2>&1";
    if (std::system(cmd.c_str()) == 0)
        return {};
    return {{"R4", header, 1,
             "header does not compile standalone (missing includes?); "
             "run: " + cxx + " -std=c++20 -fsyntax-only -x c++ -I " +
             includeRoot + " " + header,
             false}};
}

std::set<std::string>
loadBaseline(const std::string &path)
{
    std::set<std::string> entries;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        std::string rule, file;
        if (fields >> rule >> file)
            entries.insert(rule + " " + file);
    }
    return entries;
}

void
applyBaseline(std::vector<Finding> &findings,
              const std::set<std::string> &baseline)
{
    for (Finding &f : findings) {
        for (const std::string &entry : baseline) {
            const std::size_t space = entry.find(' ');
            const std::string rule = entry.substr(0, space);
            const std::string suffix = entry.substr(space + 1);
            if (rule != f.rule)
                continue;
            if (f.file == suffix ||
                (endsWith(f.file, suffix) &&
                 f.file[f.file.size() - suffix.size() - 1] == '/')) {
                f.baselined = true;
                break;
            }
        }
    }
}

std::string
baselineKey(const Finding &f)
{
    return f.rule + " " + f.file;
}

} // namespace neurolint
