// Completion journal (exp/journal.hpp): append/recover round trips are
// bitwise, a journal truncated at ANY byte — in particular at every record
// boundary — recovers exactly the longest valid record prefix and truncates
// the torn tail away (a kill mid-append), a checksummed record whose
// summary does not parse is dropped with its suffix, a signature mismatch
// restarts the file rather than folding foreign records, and foreign files
// (older format versions included) are refused outright.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

// Sanitizer runtimes reserve their own shadow address space, which an
// address-space limit would starve.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DG_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DG_TEST_SANITIZED 1
#endif
#endif

#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "util/binary_io.hpp"

namespace dg::exp {
namespace {

/// Fresh journal path per test, removed on destruction.
struct JournalPath {
  explicit JournalPath(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("dgsched_journal_test_" + name + "_" + std::to_string(::getpid()) + ".journal"))
                 .string()) {
    std::filesystem::remove(path);
  }
  ~JournalPath() { std::filesystem::remove(path); }
  std::string path;
};

/// A summary whose every field (including sketch buckets) depends on `salt`,
/// with deliberately non-representable doubles so bitwise equality means
/// something.
ReplicationSummary make_summary(std::uint64_t salt) {
  ReplicationSummary s;
  const double base = 1.0 / 3.0 + static_cast<double>(salt) * 0.7;
  s.turnaround_mean = base;
  s.waiting_mean = base * 0.1;
  s.makespan_mean = base * 2.0;
  s.utilization = 0.9 - 0.01 * static_cast<double>(salt);
  s.decayed_utilization = 0.85 - 0.01 * static_cast<double>(salt);
  s.wasted_fraction = 0.05 + 0.001 * static_cast<double>(salt);
  s.lost_work = base * 10.0;
  s.transfer_retries = static_cast<double>(salt % 3);
  s.replicas_degraded = static_cast<double>(salt % 2);
  s.server_downtime = base * 100.0;
  for (std::uint64_t i = 0; i <= salt % 5 + 3; ++i) {
    s.turnaround_tail.add(base * static_cast<double>(i + 1));
    s.slowdown_tail.add(1.0 + 0.1 * static_cast<double>(i) + 0.01 * static_cast<double>(salt));
    s.completion_gap_tail.add(base / static_cast<double>(i + 1));
  }
  s.events_executed = 10000 + salt;
  s.saturated = salt % 2 == 1;
  return s;
}

void expect_summary_bitwise(const ReplicationSummary& a, const ReplicationSummary& b) {
  std::vector<std::uint8_t> a_bytes;
  std::vector<std::uint8_t> b_bytes;
  a.serialize(a_bytes);
  b.serialize(b_bytes);
  EXPECT_EQ(a_bytes, b_bytes);
}

/// Byte offsets of the record boundaries of a closed journal file:
/// boundaries[0] is the end of the header, boundaries[k] the end of record
/// k-1. Parsed independently of the implementation (16-byte header; records
/// are a 24-byte header whose first u32 is the payload size, then the
/// payload).
std::vector<std::uintmax_t> record_boundaries(const std::string& path) {
  const std::uintmax_t size = std::filesystem::file_size(path);
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uintmax_t> boundaries{16};
  while (boundaries.back() < size) {
    std::uint32_t payload_size = 0;
    in.seekg(static_cast<std::streamoff>(boundaries.back()));
    in.read(reinterpret_cast<char*>(&payload_size), sizeof payload_size);
    boundaries.push_back(boundaries.back() + 24 + payload_size);
  }
  EXPECT_EQ(boundaries.back(), size) << "file does not end on a record boundary";
  return boundaries;
}

void copy_prefix(const std::string& from, const std::string& to, std::uintmax_t bytes) {
  std::filesystem::copy_file(from, to, std::filesystem::copy_options::overwrite_existing);
  std::filesystem::resize_file(to, bytes);
}

TEST(CampaignJournal, AppendRecoverRoundTripIsBitwise) {
  JournalPath file("roundtrip");
  constexpr std::uint64_t kSignature = 0xfeedbeefcafe1234ULL;
  {
    CampaignJournal journal(file.path, kSignature);
    EXPECT_TRUE(journal.recovered().empty());
    journal.append(0, 0, make_summary(1));
    journal.append(1, 0, make_summary(2));
    journal.append(0, 1, make_summary(3));
    journal.sync();
    EXPECT_EQ(journal.appended(), 3u);
  }
  CampaignJournal reopened(file.path, kSignature);
  ASSERT_EQ(reopened.recovered().size(), 3u);
  EXPECT_EQ(reopened.appended(), 0u);  // recovered records don't count as appends
  const auto& records = reopened.recovered();
  EXPECT_EQ(records[0].cell, 0u);
  EXPECT_EQ(records[0].replication, 0u);
  EXPECT_EQ(records[1].cell, 1u);
  EXPECT_EQ(records[1].replication, 0u);
  EXPECT_EQ(records[2].cell, 0u);
  EXPECT_EQ(records[2].replication, 1u);
  expect_summary_bitwise(records[0].summary, make_summary(1));
  expect_summary_bitwise(records[1].summary, make_summary(2));
  expect_summary_bitwise(records[2].summary, make_summary(3));

  // Appends after recovery extend the same file.
  reopened.append(1, 1, make_summary(4));
  reopened.sync();
  CampaignJournal again(file.path, kSignature);
  ASSERT_EQ(again.recovered().size(), 4u);
  expect_summary_bitwise(again.recovered()[3].summary, make_summary(4));
}

TEST(CampaignJournal, TruncationAtEveryRecordBoundaryRecoversThePrefix) {
  JournalPath file("boundaries");
  JournalPath cut("boundaries_cut");
  constexpr std::uint64_t kSignature = 77;
  {
    CampaignJournal journal(file.path, kSignature);
    for (std::uint32_t r = 0; r < 4; ++r) journal.append(r % 2, r / 2, make_summary(r));
    journal.sync();
  }
  const std::vector<std::uintmax_t> boundaries = record_boundaries(file.path);
  ASSERT_EQ(boundaries.size(), 5u);  // header end + 4 record ends

  for (std::size_t k = 0; k < boundaries.size(); ++k) {
    SCOPED_TRACE(k);
    // Exactly at the boundary: the first k records survive, nothing is lost.
    copy_prefix(file.path, cut.path, boundaries[k]);
    {
      CampaignJournal journal(cut.path, kSignature);
      ASSERT_EQ(journal.recovered().size(), k);
      for (std::size_t i = 0; i < k; ++i) {
        expect_summary_bitwise(journal.recovered()[i].summary,
                               make_summary(static_cast<std::uint64_t>(i)));
      }
    }
    EXPECT_EQ(std::filesystem::file_size(cut.path), boundaries[k]);

    // Mid-record cuts (a kill mid-append): the torn tail is dropped AND
    // physically truncated, so the next append lands on a clean boundary.
    if (k + 1 >= boundaries.size()) continue;
    for (const std::uintmax_t offset :
         {std::uintmax_t{1}, std::uintmax_t{23}, boundaries[k + 1] - boundaries[k] - 1}) {
      SCOPED_TRACE(offset);
      copy_prefix(file.path, cut.path, boundaries[k] + offset);
      {
        CampaignJournal journal(cut.path, kSignature);
        EXPECT_EQ(journal.recovered().size(), k);
      }
      EXPECT_EQ(std::filesystem::file_size(cut.path), boundaries[k]);
    }
  }
}

TEST(CampaignJournal, CorruptRecordDropsItAndItsSuffix) {
  JournalPath file("corrupt");
  constexpr std::uint64_t kSignature = 88;
  {
    CampaignJournal journal(file.path, kSignature);
    for (std::uint32_t r = 0; r < 3; ++r) journal.append(0, r, make_summary(r));
    journal.sync();
  }
  const std::vector<std::uintmax_t> boundaries = record_boundaries(file.path);
  // Flip a byte inside record 1's payload: records 0 survives, 1 fails its
  // checksum, and 2 — though intact — is unreachable past the corruption.
  {
    std::fstream f(file.path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(boundaries[1] + 30));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0xff);
    f.write(&byte, 1);
  }
  CampaignJournal journal(file.path, kSignature);
  ASSERT_EQ(journal.recovered().size(), 1u);
  expect_summary_bitwise(journal.recovered()[0].summary, make_summary(0));
  EXPECT_EQ(std::filesystem::file_size(file.path), boundaries[1]);
}

/// Bytes of address space this process has mapped (/proc/self/statm).
std::uintmax_t mapped_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uintmax_t pages = 0;
  statm >> pages;
  return pages * static_cast<std::uintmax_t>(::sysconf(_SC_PAGESIZE));
}

TEST(CampaignJournal, RecordLongerThanTheFileIsATornTailNotAnAllocation) {
#ifdef DG_TEST_SANITIZED
  GTEST_SKIP() << "an address-space limit starves the sanitizer runtime";
#endif
  // A 48-byte journal: its 16-byte header, then one 24-byte record header
  // claiming 0xFFFFFFF0 payload bytes, then 8 bytes. The claim runs past the
  // end of the file, so the record is a torn tail: recovery must stop there
  // without sizing a buffer from it, and cut the file back to its header.
  JournalPath file("oversized");
  constexpr std::uint64_t kSignature = 99;
  { CampaignJournal journal(file.path, kSignature); }
  {
    std::ofstream out(file.path, std::ios::binary | std::ios::app);
    const std::uint32_t record_header[6] = {0xFFFFFFF0u, 0, 0, 0, 0, 0};
    out.write(reinterpret_cast<const char*>(record_header), sizeof record_header);
    const char payload[8] = {};
    out.write(payload, sizeof payload);
  }
  ASSERT_EQ(std::filesystem::file_size(file.path), 48u);

  // Recover in a child allowed 1 GiB of address space beyond what it already
  // maps: zero-filling the claimed 4 GiB cannot fit, and any escape from the
  // constructor (std::bad_alloc included) is a failing exit status.
  const std::uintmax_t limit = mapped_bytes() + (std::uintmax_t{1} << 30);
  const ::pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const ::rlimit address_space{limit, limit};
    if (::setrlimit(RLIMIT_AS, &address_space) != 0) ::_exit(10);
    try {
      const CampaignJournal journal(file.path, kSignature);
      if (!journal.recovered().empty()) ::_exit(11);
    } catch (...) {
      ::_exit(12);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "recovery died of signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0) << "10: setrlimit, 11: records recovered, 12: threw";
  EXPECT_EQ(std::filesystem::file_size(file.path), 16u);
}

TEST(CampaignJournal, SketchListLongerThanTheBucketsIsCorruptNotAnAllocation) {
#ifdef DG_TEST_SANITIZED
  GTEST_SKIP() << "an address-space limit starves the sanitizer runtime";
#endif
  // Three records; record 1's first sketch is forged to claim 0xFFFFFFFF
  // non-zero buckets and its checksum recomputed, so only the sketch parser
  // can tell. Recovery must keep record 0, drop record 1 and its suffix, and
  // size nothing from the claim (12 bytes x 2^32 entries would be 48 GiB).
  JournalPath file("sketch_entries");
  constexpr std::uint64_t kSignature = 111;
  {
    CampaignJournal journal(file.path, kSignature);
    for (std::uint32_t r = 0; r < 3; ++r) journal.append(0, r, make_summary(r));
    journal.sync();
  }
  const std::vector<std::uintmax_t> boundaries = record_boundaries(file.path);
  ASSERT_EQ(boundaries.size(), 4u);
  {
    std::fstream f(file.path, std::ios::in | std::ios::out | std::ios::binary);
    const auto record = static_cast<std::streamoff>(boundaries[1]);
    std::uint32_t header[6] = {};  // payload size, cell, replication, reserved, checksum
    f.seekg(record);
    f.read(reinterpret_cast<char*>(header), sizeof header);
    std::vector<std::uint8_t> payload(header[0]);
    f.read(reinterpret_cast<char*>(payload.data()), static_cast<std::streamsize>(payload.size()));
    // The summary's ten leading doubles, then the first sketch's entry count.
    const std::uint32_t entries = 0xFFFFFFFFu;
    std::memcpy(payload.data() + 10 * sizeof(double), &entries, sizeof entries);
    std::uint64_t checksum = util::fnv1a64_bytes(&header[1], sizeof header[1]);
    checksum = util::fnv1a64_bytes(&header[2], sizeof header[2], checksum);
    checksum = util::fnv1a64_bytes(payload.data(), payload.size(), checksum);
    std::memcpy(&header[4], &checksum, sizeof checksum);
    f.seekp(record);
    f.write(reinterpret_cast<const char*>(header), sizeof header);
    f.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  }

  // Recover in a child allowed 1 GiB of address space beyond what it already
  // maps, as in RecordLongerThanTheFileIsATornTailNotAnAllocation.
  const std::uintmax_t limit = mapped_bytes() + (std::uintmax_t{1} << 30);
  const ::pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const ::rlimit address_space{limit, limit};
    if (::setrlimit(RLIMIT_AS, &address_space) != 0) ::_exit(10);
    try {
      const CampaignJournal journal(file.path, kSignature);
      if (journal.recovered().size() != 1) ::_exit(11);
    } catch (...) {
      ::_exit(12);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "recovery died of signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0) << "10: setrlimit, 11: not exactly record 0, 12: threw";
  EXPECT_EQ(std::filesystem::file_size(file.path), boundaries[1]);
  CampaignJournal journal(file.path, kSignature);
  ASSERT_EQ(journal.recovered().size(), 1u);
  expect_summary_bitwise(journal.recovered()[0].summary, make_summary(0));
}

TEST(CampaignJournal, SignatureMismatchRestartsTheFile) {
  JournalPath file("signature");
  {
    CampaignJournal journal(file.path, 1);
    journal.append(0, 0, make_summary(9));
    journal.sync();
  }
  // A different campaign must not fold the old records.
  {
    CampaignJournal journal(file.path, 2);
    EXPECT_TRUE(journal.recovered().empty());
    journal.append(5, 6, make_summary(10));
    journal.sync();
  }
  // The restart rewrote the header: signature 2 now owns the file...
  {
    CampaignJournal journal(file.path, 2);
    ASSERT_EQ(journal.recovered().size(), 1u);
    EXPECT_EQ(journal.recovered()[0].cell, 5u);
  }
  // ...and signature 1's records are gone for good.
  CampaignJournal journal(file.path, 1);
  EXPECT_TRUE(journal.recovered().empty());
}

TEST(CampaignJournal, ForeignFilesAreRefusedNotOverwritten) {
  JournalPath file("foreign");
  {
    std::ofstream out(file.path, std::ios::binary);
    const char garbage[] = "NOTA journal at all, some other file's bytes....";
    out.write(garbage, sizeof garbage);
  }
  EXPECT_THROW(CampaignJournal(file.path, 3), std::runtime_error);

  // Right magic, but the previous format version (dense sketches) or a
  // future one: also not ours to rewrite.
  for (const std::uint32_t version :
       {CampaignJournal::kFormatVersion - 1, CampaignJournal::kFormatVersion + 1}) {
    SCOPED_TRACE(version);
    {
      std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
      const char magic[4] = {'D', 'G', 'J', 'L'};
      const std::uint64_t signature = 3;
      out.write(magic, sizeof magic);
      out.write(reinterpret_cast<const char*>(&version), sizeof version);
      out.write(reinterpret_cast<const char*>(&signature), sizeof signature);
    }
    EXPECT_THROW(CampaignJournal(file.path, 3), std::runtime_error);
    EXPECT_EQ(std::filesystem::file_size(file.path), 16u);
  }
}

TEST(CampaignJournal, CampaignSignatureBindsCellsAndPrecisionOptions) {
  const auto cells_of = [](std::initializer_list<const char*> labels) {
    std::vector<NamedConfig> cells;
    for (const char* label : labels) cells.push_back(NamedConfig{label, {}});
    return cells;
  };
  const std::vector<NamedConfig> cells = cells_of({"alpha", "beta"});
  RunOptions options;
  const std::uint64_t reference = CampaignJournal::campaign_signature(cells, options);

  // Deterministic for identical inputs.
  EXPECT_EQ(CampaignJournal::campaign_signature(cells_of({"alpha", "beta"}), options),
            reference);
  // Any cell-list change is a different campaign.
  EXPECT_NE(CampaignJournal::campaign_signature(cells_of({"alpha"}), options), reference);
  EXPECT_NE(CampaignJournal::campaign_signature(cells_of({"alpha", "gamma"}), options),
            reference);
  EXPECT_NE(CampaignJournal::campaign_signature(cells_of({"beta", "alpha"}), options),
            reference);
  // So is any precision-relevant option change.
  {
    RunOptions o = options;
    o.base_seed += 1;
    EXPECT_NE(CampaignJournal::campaign_signature(cells, o), reference);
  }
  {
    RunOptions o = options;
    o.min_replications += 1;
    EXPECT_NE(CampaignJournal::campaign_signature(cells, o), reference);
  }
  {
    RunOptions o = options;
    o.max_replications += 1;
    EXPECT_NE(CampaignJournal::campaign_signature(cells, o), reference);
  }
  {
    RunOptions o = options;
    o.ci_level = 0.99;
    EXPECT_NE(CampaignJournal::campaign_signature(cells, o), reference);
  }
  {
    RunOptions o = options;
    o.target_relative_error = 0.01;
    EXPECT_NE(CampaignJournal::campaign_signature(cells, o), reference);
  }
  // Execution-shape options deliberately do NOT change the signature: a
  // resumed campaign may use a different worker count or speculation window.
  {
    RunOptions o = options;
    o.threads = 7;
    o.speculate = 4;
    EXPECT_EQ(CampaignJournal::campaign_signature(cells, o), reference);
  }
}

}  // namespace
}  // namespace dg::exp
