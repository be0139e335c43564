#include "exp/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "exp/runner.hpp"
#include "rng/random_stream.hpp"
#include "rng/splitmix64.hpp"
#include "util/logging.hpp"

namespace dg::exp {

namespace {

constexpr char kMagic[4] = {'D', 'G', 'J', 'L'};

struct JournalHeader {
  char magic[4];
  std::uint32_t version = 0;
  std::uint64_t signature = 0;
};
static_assert(sizeof(JournalHeader) == 16);

struct RecordHeader {
  std::uint32_t payload_size = 0;
  std::uint32_t cell = 0;
  std::uint32_t replication = 0;
  std::uint32_t reserved = 0;
  std::uint64_t checksum = 0;
};
static_assert(sizeof(RecordHeader) == 24);

[[nodiscard]] std::uint64_t record_checksum(std::uint32_t cell, std::uint32_t replication,
                                            const std::uint8_t* payload, std::size_t size) {
  std::uint64_t h = util::fnv1a64_bytes(&cell, sizeof(cell));
  h = util::fnv1a64_bytes(&replication, sizeof(replication), h);
  return util::fnv1a64_bytes(payload, size, h);
}

void write_all(int fd, const void* data, std::size_t size, const std::string& path) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t written = 0;
  while (written < size) {
    const ::ssize_t n = ::write(fd, bytes + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("CampaignJournal: write failed on " + path);
    }
    written += static_cast<std::size_t>(n);
  }
}

/// Reads exactly `size` bytes; returns false on EOF or short read (a torn
/// tail), throws on a real I/O error.
[[nodiscard]] bool read_exact(int fd, void* data, std::size_t size, const std::string& path) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ::ssize_t n = ::read(fd, bytes + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("CampaignJournal: read failed on " + path);
    }
    if (n == 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::uint64_t CampaignJournal::campaign_signature(const std::vector<NamedConfig>& cells,
                                                 const RunOptions& options) {
  std::uint64_t h = rng::fnv1a64("campaign.journal");
  h = rng::mix_seed(h, cells.size());
  for (const NamedConfig& cell : cells) h = rng::mix_seed(h, rng::fnv1a64(cell.label));
  h = rng::mix_seed(h, options.base_seed);
  h = rng::mix_seed(h, options.min_replications);
  h = rng::mix_seed(h, options.max_replications);
  h = rng::mix_seed(h, std::bit_cast<std::uint64_t>(options.ci_level));
  h = rng::mix_seed(h, std::bit_cast<std::uint64_t>(options.target_relative_error));
  return h;
}

CampaignJournal::CampaignJournal(std::string path, std::uint64_t signature)
    : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throw std::runtime_error("CampaignJournal: cannot open " + path_);

  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("CampaignJournal: fstat failed on " + path_);
  }

  bool fresh = st.st_size == 0;
  if (!fresh) {
    JournalHeader header;
    if (static_cast<std::size_t>(st.st_size) < sizeof(header) ||
        !read_exact(fd_, &header, sizeof(header), path_)) {
      // A kill between open and the first header write can leave a short
      // file; it carries no records, so restart it.
      fresh = true;
    } else if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0 ||
               header.version != kFormatVersion) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("CampaignJournal: " + path_ +
                               " is not a campaign journal of this format");
    } else if (header.signature != signature) {
      util::log_info("journal '", path_, "': campaign signature mismatch, starting fresh");
      fresh = true;
    }
  }

  if (fresh) {
    if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("CampaignJournal: cannot reset " + path_);
    }
    JournalHeader header{};
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.version = kFormatVersion;
    header.signature = signature;
    write_all(fd_, &header, sizeof(header), path_);
    return;
  }

  // Scan the valid record prefix; the first torn or corrupt record marks the
  // recovery point, and everything from there on is truncated away so
  // appends continue from a clean boundary. A record claiming more payload
  // than the file still holds is a torn tail too: the size is checked before
  // it sizes an allocation, so recovery never allocates past the file size.
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  std::uint64_t valid_end = sizeof(JournalHeader);
  std::vector<std::uint8_t> payload;
  for (;;) {
    RecordHeader record;
    if (!read_exact(fd_, &record, sizeof(record), path_)) break;
    if (valid_end + sizeof(record) + record.payload_size > file_size) break;
    payload.resize(record.payload_size);
    if (!read_exact(fd_, payload.data(), payload.size(), path_)) break;
    if (record_checksum(record.cell, record.replication, payload.data(), payload.size()) !=
        record.checksum) {
      break;
    }
    try {
      util::ByteReader reader(payload.data(), payload.size());
      Record recovered;
      recovered.cell = record.cell;
      recovered.replication = record.replication;
      recovered.summary = ReplicationSummary::deserialize(reader);
      if (!reader.exhausted()) break;
      recovered_.push_back(std::move(recovered));
    } catch (const std::runtime_error&) {
      break;
    }
    valid_end += sizeof(record) + payload.size();
  }
  if (valid_end != file_size) {
    if (::ftruncate(fd_, static_cast<::off_t>(valid_end)) != 0) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("CampaignJournal: cannot truncate torn tail of " + path_);
    }
    util::log_info("journal '", path_, "': recovered ", recovered_.size(),
                   " records, truncated torn tail");
  }
  if (::lseek(fd_, static_cast<::off_t>(valid_end), SEEK_SET) < 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("CampaignJournal: lseek failed on " + path_);
  }
}

CampaignJournal::~CampaignJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void CampaignJournal::append(std::uint32_t cell, std::uint32_t replication,
                             const ReplicationSummary& summary) {
  scratch_.clear();
  summary.serialize(scratch_);
  RecordHeader record;
  record.payload_size = static_cast<std::uint32_t>(scratch_.size());
  record.cell = cell;
  record.replication = replication;
  record.checksum = record_checksum(cell, replication, scratch_.data(), scratch_.size());
  write_all(fd_, &record, sizeof(record), path_);
  write_all(fd_, scratch_.data(), scratch_.size(), path_);
  ++appended_;
}

void CampaignJournal::sync() {
  if (::fsync(fd_) != 0) throw std::runtime_error("CampaignJournal: fsync failed on " + path_);
}

}  // namespace dg::exp
