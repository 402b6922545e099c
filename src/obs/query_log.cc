#include "obs/query_log.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"

namespace starmagic {

namespace {

// SQL text collapsed to one display line (embedded newlines and tabs
// become spaces; long statements are truncated with an ellipsis).
std::string OneLineSql(const std::string& sql, size_t max_len = 160) {
  std::string out;
  out.reserve(std::min(sql.size(), max_len));
  for (char c : sql) {
    out.push_back(c == '\n' || c == '\r' || c == '\t' ? ' ' : c);
    if (out.size() >= max_len) {
      out += "...";
      break;
    }
  }
  return out;
}

}  // namespace

std::string QueryLogEntry::ToString() const {
  char header[160];
  std::snprintf(header, sizeof(header),
                "#%lld [%s/%s] %s rows=%lld work=%lld wall=%.3fms",
                static_cast<long long>(id), kind.c_str(), strategy.c_str(),
                status == "ok" ? "ok" : "ERROR", static_cast<long long>(rows),
                static_cast<long long>(total_work), wall_ms);
  std::string out = header;
  if (emst_applied) {
    out += StrCat(" C1=", FormatDouble(cost_no_emst),
                  " C2=", FormatDouble(cost_with_emst),
                  " chosen=", emst_chosen ? "emst" : "no-emst");
  }
  if (peak_memory_bytes > 0) {
    out += StrCat(" peak_mem=", peak_memory_bytes);
  }
  out += StrCat("\n    ", OneLineSql(sql), "\n");
  if (status != "ok") {
    out += StrCat("    status: ", status, "\n");
  }
  if (!rule_fires.empty()) {
    out += "    fires:";
    for (const RuleFireStats& f : rule_fires) {
      out += StrCat(" ", f.phase, "/", f.rule, "=", f.fires);
    }
    out += "\n";
  }
  return out;
}

QueryLog::QueryLog(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void QueryLog::Record(QueryLogEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entry.id = next_id_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(entry));
    return;
  }
  ring_[head_] = std::move(entry);
  head_ = (head_ + 1) % capacity_;
}

size_t QueryLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

int64_t QueryLog::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_ - 1;
}

std::vector<const QueryLogEntry*> QueryLog::EntriesLocked() const {
  std::vector<const QueryLogEntry*> out;
  out.reserve(ring_.size());
  // Once the ring is full, `head_` is the oldest slot.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(&ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<const QueryLogEntry*> QueryLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return EntriesLocked();
}

const QueryLogEntry* QueryLog::Latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return nullptr;
  size_t last = (head_ + ring_.size() - 1) % ring_.size();
  return &ring_[last];
}

std::vector<QueryLogEntry> QueryLog::SnapshotEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryLogEntry> out;
  out.reserve(ring_.size());
  for (const QueryLogEntry* e : EntriesLocked()) out.push_back(*e);
  return out;
}

std::string QueryLog::Dump(int n) const {
  std::vector<QueryLogEntry> entries = SnapshotEntries();
  size_t keep = n <= 0 ? entries.size()
                       : std::min(entries.size(), static_cast<size_t>(n));
  std::string out;
  for (size_t i = entries.size() - keep; i < entries.size(); ++i) {
    out += entries[i].ToString();
  }
  if (out.empty()) out = "(query log empty)\n";
  return out;
}

void QueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = 0;
}

}  // namespace starmagic
