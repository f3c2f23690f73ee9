#include "daemon/job_request.h"

#include "support/checksum.h"

namespace gb::daemon {

support::Status status_from_wire(std::uint8_t code, std::string message) {
  using support::Status;
  using support::StatusCode;
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk: return Status();
    case StatusCode::kCorrupt: return Status::corrupt(std::move(message));
    case StatusCode::kNotFound: return Status::not_found(std::move(message));
    case StatusCode::kUnavailable:
      return Status::unavailable(std::move(message));
    case StatusCode::kFailedPrecondition:
      return Status::failed_precondition(std::move(message));
    case StatusCode::kInternal: return Status::internal(std::move(message));
    case StatusCode::kCancelled: return Status::cancelled(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::resource_exhausted(std::move(message));
  }
  return Status::internal("unknown status code " + std::to_string(code) +
                          ": " + std::move(message));
}

void put_status(ByteWriter& w, const support::Status& status) {
  w.u8(static_cast<std::uint8_t>(status.code()));
  w.u32(static_cast<std::uint32_t>(status.message().size()));
  w.str(status.message());
}

support::Status get_status(ByteReader& r) {
  const std::uint8_t code = r.u8();
  std::string message = r.str(r.u32());
  return status_from_wire(code, std::move(message));
}

std::uint64_t machine_shard_hash(std::string_view machine_id) {
  return support::fnv1a(machine_id);
}

void JobRequest::serialize(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(machine_id.size()));
  w.str(machine_id);
  w.u32(static_cast<std::uint32_t>(tenant.size()));
  w.str(tenant);
  w.u32(static_cast<std::uint32_t>(priority));
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(static_cast<std::uint32_t>(resources));
  w.u8(advanced ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(carve));
  w.u64(trace_id);
  w.u64(parent_span_id);
}

support::StatusOr<JobRequest> JobRequest::deserialize(ByteReader& r) {
  // ByteReader throws ParseError on truncation; this is the `_or`
  // boundary where that becomes a Status for journal/wire callers.
  try {
    JobRequest req;
    req.machine_id = r.str(r.u32());
    req.tenant = r.str(r.u32());
    req.priority = static_cast<std::int32_t>(r.u32());
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(core::ScanKind::kOutside)) {
      return support::Status::corrupt("job request: bad scan kind");
    }
    req.kind = static_cast<core::ScanKind>(kind);
    const std::uint32_t resources = r.u32();
    if ((resources & ~static_cast<std::uint32_t>(core::ResourceMask::kAll)) !=
        0) {
      return support::Status::corrupt("job request: bad resource mask");
    }
    req.resources = static_cast<core::ResourceMask>(resources);
    req.advanced = r.u8() != 0;
    const std::uint8_t carve = r.u8();
    if (carve > static_cast<std::uint8_t>(core::CarveMode::kOn)) {
      return support::Status::corrupt("job request: bad carve mode");
    }
    req.carve = static_cast<core::CarveMode>(carve);
    req.trace_id = r.u64();
    req.parent_span_id = r.u64();
    return req;
  } catch (const ParseError& e) {
    return support::Status::corrupt(std::string("job request: ") + e.what());
  }
}

}  // namespace gb::daemon
