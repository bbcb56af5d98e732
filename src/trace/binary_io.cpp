#include "l2sim/trace/binary_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "l2sim/common/error.hpp"

namespace l2s::trace {
namespace {

constexpr char kMagic[4] = {'L', '2', 'S', 'T'};

// Bounds used to reject corrupt headers.
constexpr std::uint64_t kMaxFiles = 1ull << 32;
constexpr std::uint64_t kMaxRequests = 1ull << 36;
constexpr std::uint32_t kMaxNameLength = 4096;
// Header counts are not trusted to size allocations: a short input that
// claims 2^36 requests must end in "truncated input", not bad_alloc. Up
// to this many entries are reserved up front; the rest grow as read.
constexpr std::uint64_t kMaxReserve = 1ull << 20;

template <typename T>
void put(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T get(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw_error("binary trace: truncated input");
  return value;
}

}  // namespace

void write_binary(const Trace& trace, std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  put<std::uint32_t>(out, kBinaryTraceVersion);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(trace.name().size()));
  out.write(trace.name().data(), static_cast<std::streamsize>(trace.name().size()));

  put<std::uint64_t>(out, trace.files().count());
  for (FileId id = 0; id < trace.files().count(); ++id)
    put<std::uint64_t>(out, trace.files().size_of(id));

  put<std::uint64_t>(out, trace.request_count());
  for (const auto& r : trace.requests()) {
    put<std::uint32_t>(out, r.file);
    put<std::uint64_t>(out, r.bytes);
  }
  if (!out) throw_error("binary trace: write failed");
}

void write_binary_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw_error("binary trace: cannot open " + path + " for writing");
  write_binary(trace, out);
}

Trace read_binary(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw_error("binary trace: bad magic (not an .l2st file)");
  const auto version = get<std::uint32_t>(in);
  if (version != kBinaryTraceVersion)
    throw_error("binary trace: unsupported version " + std::to_string(version));

  const auto name_len = get<std::uint32_t>(in);
  if (name_len > kMaxNameLength) throw_error("binary trace: implausible name length");
  std::string name(name_len, '\0');
  in.read(name.data(), name_len);
  if (!in) throw_error("binary trace: truncated name");

  const auto file_count = get<std::uint64_t>(in);
  if (file_count == 0 || file_count > kMaxFiles)
    throw_error("binary trace: implausible file count");
  storage::FileSet files;
  files.reserve(std::min(file_count, kMaxReserve));
  for (std::uint64_t i = 0; i < file_count; ++i) files.add(get<std::uint64_t>(in));

  const auto request_count = get<std::uint64_t>(in);
  if (request_count > kMaxRequests) throw_error("binary trace: implausible request count");
  std::vector<Request> requests;
  requests.reserve(std::min(request_count, kMaxReserve));
  for (std::uint64_t i = 0; i < request_count; ++i) {
    const auto file = get<std::uint32_t>(in);
    const auto bytes = get<std::uint64_t>(in);
    if (file >= file_count) throw_error("binary trace: request references unknown file");
    requests.push_back(Request{file, bytes});
  }
  return Trace(name, std::move(files), std::move(requests));
}

Trace read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw_error("binary trace: cannot open " + path);
  return read_binary(in);
}

}  // namespace l2s::trace
