#include "neuro/telemetry/export.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

namespace neuro {
namespace telemetry {

namespace {

/** Fixed %.6g float formatting shared by every exporter, so every
 *  telemetry artifact is byte-stable for golden tests. */
std::string
formatValue(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
formatCount(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Minimal JSON string escaping; metric names are dotted identifiers,
 *  but quote anything that would break the document anyway. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(
                              static_cast<unsigned char>(c)));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

/** `model="<escaped>"`: one Prometheus label pair. */
std::string
modelLabel(const std::string &model)
{
    std::string out = "model=\"";
    for (const char c : model) {
        if (c == '\\' || c == '"') {
            out.push_back('\\');
            out.push_back(c);
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out.push_back(c);
        }
    }
    return out + "\"";
}

/** `{model="..."}` or nothing: the label set of a plain sample. */
std::string
labelSet(const std::string &model)
{
    if (model.empty())
        return {};
    // Appended, not `"{" + ... + "}"`: GCC 12 at -O3 reports a false
    // -Wrestrict on that concatenation.
    std::string out = "{";
    out += modelLabel(model);
    out += '}';
    return out;
}

/** CSV cell: quoted, with quotes doubled, when it holds a quote or a
 *  comma (a labeled series key). */
std::string
csvCell(const std::string &s)
{
    if (s.find_first_of("\",") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    return out + "\"";
}

/** Left-pad @p key to the traditional 40-column value alignment. */
std::string
padKey(const std::string &key)
{
    std::string out = key;
    if (out.size() < 40)
        out.append(40 - out.size(), ' ');
    return out;
}

} // namespace

std::string
prometheusName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        if (!ok)
            c = '_';
    }
    return out;
}

std::string
seriesKey(const std::string &name, const std::string &model)
{
    return name + labelSet(model);
}

void
writeText(const MetricsSnapshot &snap, std::ostream &os)
{
    os << "---------- stats ----------\n";
    for (const auto &c : snap.counters)
        os << padKey(seriesKey(c.name, c.model)) << formatCount(c.value)
           << "\n";
    for (const auto &g : snap.gauges)
        os << padKey(seriesKey(g.name, g.model)) << formatValue(g.value)
           << "\n";
    for (const auto &h : snap.histograms) {
        os << padKey(seriesKey(h.name, h.model))
           << "count=" << formatCount(h.summary.count)
           << " p50=" << formatValue(h.summary.p50Us)
           << " p99=" << formatValue(h.summary.p99Us)
           << " max=" << formatValue(h.summary.maxUs)
           << " sum=" << formatValue(h.summary.sumUs) << "\n";
    }
    os << "---------------------------\n";
}

void
writePrometheus(const MetricsSnapshot &snap, std::ostream &os)
{
    // Series sharing a (sanitized) name, labeled or not, form one
    // family: its `# TYPE` line is written once, on first sight.
    std::set<std::string> declared;
    auto family = [&](const std::string &name, const char *type) {
        std::string f = prometheusName(name);
        if (declared.insert(f).second)
            os << "# TYPE " << f << " " << type << "\n";
        return f;
    };
    for (const auto &c : snap.counters) {
        const std::string name = family(c.name, "counter");
        os << name << labelSet(c.model) << " " << formatCount(c.value)
           << "\n";
    }
    for (const auto &g : snap.gauges) {
        const std::string name = family(g.name, "gauge");
        os << name << labelSet(g.model) << " " << formatValue(g.value)
           << "\n";
    }
    for (const auto &h : snap.histograms) {
        const std::string name = family(h.name, "summary");
        const std::string model =
            h.model.empty() ? std::string() : modelLabel(h.model) + ",";
        const std::pair<const char *, double> quantiles[] = {
            {"0.5", h.summary.p50Us},
            {"0.95", h.summary.p95Us},
            {"0.99", h.summary.p99Us}};
        for (const auto &[q, v] : quantiles)
            os << name << "{" << model << "quantile=\"" << q << "\"} "
               << formatValue(v) << "\n";
        os << name << "_sum" << labelSet(h.model) << " "
           << formatValue(h.summary.sumUs) << "\n";
        os << name << "_count" << labelSet(h.model) << " "
           << formatCount(h.summary.count) << "\n";
    }
}

void
writeJson(const MetricsSnapshot &snap, std::ostream &os)
{
    os << "{\n  \"counters\": {";
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
        const auto &c = snap.counters[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    \"" << jsonEscape(seriesKey(c.name, c.model))
           << "\": " << formatCount(c.value);
    }
    os << (snap.counters.empty() ? "},\n" : "\n  },\n");
    os << "  \"gauges\": {";
    for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
        const auto &g = snap.gauges[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    \"" << jsonEscape(seriesKey(g.name, g.model))
           << "\": " << formatValue(g.value);
    }
    os << (snap.gauges.empty() ? "},\n" : "\n  },\n");
    os << "  \"histograms\": {";
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
        const auto &h = snap.histograms[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    \"" << jsonEscape(seriesKey(h.name, h.model))
           << "\": {"
           << "\"count\": " << formatCount(h.summary.count)
           << ", \"p50_us\": " << formatValue(h.summary.p50Us)
           << ", \"p95_us\": " << formatValue(h.summary.p95Us)
           << ", \"p99_us\": " << formatValue(h.summary.p99Us)
           << ", \"max_us\": " << formatValue(h.summary.maxUs)
           << ", \"sum_us\": " << formatValue(h.summary.sumUs)
           << "}";
    }
    os << (snap.histograms.empty() ? "}\n" : "\n  }\n");
    os << "}\n";
}

void
writeTimelineCsv(const std::vector<Sampler::Row> &rows,
                 std::ostream &os)
{
    // One row's cells by column key; a histogram contributes four
    // columns named `<name>.<field>` plus its label.
    auto cellsOf = [](const MetricsSnapshot &snap) {
        std::map<std::string, std::string> cells;
        for (const auto &c : snap.counters)
            cells[seriesKey(c.name, c.model)] = formatCount(c.value);
        for (const auto &g : snap.gauges)
            cells[seriesKey(g.name, g.model)] = formatValue(g.value);
        for (const auto &h : snap.histograms) {
            const std::pair<const char *, std::string> fields[] = {
                {".count", formatCount(h.summary.count)},
                {".p50_us", formatValue(h.summary.p50Us)},
                {".p95_us", formatValue(h.summary.p95Us)},
                {".p99_us", formatValue(h.summary.p99Us)}};
            for (const auto &[suffix, value] : fields)
                cells[seriesKey(h.name + suffix, h.model)] = value;
        }
        return cells;
    };
    std::vector<std::map<std::string, std::string>> table;
    table.reserve(rows.size());
    // Column union across all rows: a series registered mid-run gets
    // empty cells before its first appearance.
    std::set<std::string> columns;
    for (const auto &row : rows) {
        table.push_back(cellsOf(row.snapshot));
        for (const auto &[col, value] : table.back())
            columns.insert(col);
    }
    os << "time_s";
    for (const auto &col : columns)
        os << "," << csvCell(col);
    os << "\n";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        os << formatValue(rows[r].timeS);
        for (const auto &col : columns) {
            os << ",";
            auto it = table[r].find(col);
            if (it != table[r].end())
                os << it->second;
        }
        os << "\n";
    }
}

} // namespace telemetry
} // namespace neuro
