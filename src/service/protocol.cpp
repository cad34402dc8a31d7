#include "src/service/protocol.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "src/service/workload.hpp"

namespace sap::service {
namespace {

void put_u32(unsigned char* out, std::uint32_t v) noexcept {
  out[0] = static_cast<unsigned char>(v & 0xff);
  out[1] = static_cast<unsigned char>((v >> 8) & 0xff);
  out[2] = static_cast<unsigned char>((v >> 16) & 0xff);
  out[3] = static_cast<unsigned char>((v >> 24) & 0xff);
}

std::uint32_t get_u32(const unsigned char* in) noexcept {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

/// Splits a payload into lines; `take(key)` consumes one "key value" line.
/// `rest()` hands back everything after the cursor verbatim (the embedded
/// instance/solution text).
class EnvelopeParser {
 public:
  explicit EnvelopeParser(std::string_view payload) : rest_(payload) {}

  std::string_view take(std::string_view key) {
    std::string_view value;
    if (take_if(key, &value)) return value;
    const std::string_view line = next_line(key);
    fail(std::string("expected '") + std::string(key) + "' line, got '" +
         std::string(line.substr(0, 40)) + "'");
  }

  void expect_line(std::string_view literal) {
    const std::string_view line = next_line(literal);
    if (line != literal) {
      fail(std::string("expected '") + std::string(literal) + "', got '" +
           std::string(line.substr(0, 40)) + "'");
    }
  }

  /// Optional-key variant of take(): consumes and returns the value only if
  /// the next line starts with `key`; otherwise leaves the cursor in place
  /// and returns false. Optional envelope lines are read this way.
  bool take_if(std::string_view key, std::string_view* value_out) {
    if (rest_.empty()) return false;
    const std::size_t nl = rest_.find('\n');
    const std::string_view line =
        nl == std::string_view::npos ? rest_ : rest_.substr(0, nl);
    if (line.size() < key.size() || line.substr(0, key.size()) != key) {
      return false;
    }
    std::string_view value = line.substr(key.size());
    if (!value.empty() && value.front() != ' ') return false;
    rest_ = nl == std::string_view::npos ? std::string_view{}
                                         : rest_.substr(nl + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    *value_out = value;
    return true;
  }

  /// Consumes exactly `n` raw bytes (a length-prefixed nested section).
  std::string_view take_bytes(std::size_t n, const char* what) {
    if (rest_.size() < n) {
      fail(std::string("truncated ") + what + " section: want " +
           std::to_string(n) + " bytes, have " + std::to_string(rest_.size()));
    }
    const std::string_view value = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return value;
  }

  [[nodiscard]] std::string_view rest() const noexcept { return rest_; }

  [[noreturn]] static void fail(const std::string& why) {
    throw std::invalid_argument("sapd protocol: " + why);
  }

 private:
  std::string_view next_line(std::string_view what) {
    if (rest_.empty()) {
      fail(std::string("expected '") + std::string(what) +
           "', got end of payload");
    }
    const std::size_t nl = rest_.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? rest_ : rest_.substr(0, nl);
    rest_ = nl == std::string_view::npos ? std::string_view{}
                                         : rest_.substr(nl + 1);
    return line;
  }

  std::string_view rest_;
};

/// One whole number field; stod reads the hexfloat `eps` exactly.
template <typename T>
T parse_as(std::string_view value, const char* what) {
  try {
    const std::string text(value);
    std::size_t used = 0;
    T v{};
    if constexpr (std::is_same_v<T, double>) {
      v = std::stod(text, &used);
    } else if constexpr (std::is_signed_v<T>) {
      v = std::stoll(text, &used);
    } else {
      // stoull accepts a sign ("-1" wraps to 2^64-1); an unsigned field
      // must start with a digit.
      if (text.empty() || text[0] < '0' || text[0] > '9') {
        throw std::invalid_argument("not an unsigned integer");
      }
      v = std::stoull(text, &used);
    }
    if (used != value.size()) throw std::invalid_argument("trailing bytes");
    return v;
  } catch (const std::exception&) {
    EnvelopeParser::fail(std::string("bad ") + what + " '" +
                         std::string(value.substr(0, 40)) + "'");
  }
}

/// Hex float: exact decimal-free round trip for eps across the wire.
std::string format_f64(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

}  // namespace

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadRequest:
      return "BAD_REQUEST";
    case ErrorCode::kOverloaded:
      return "OVERLOADED";
    case ErrorCode::kShuttingDown:
      return "SHUTTING_DOWN";
    case ErrorCode::kInternal:
      return "INTERNAL";
    case ErrorCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
  }
  return "INTERNAL";
}

ErrorCode parse_error_code(std::string_view name) {
  if (name == "BAD_REQUEST") return ErrorCode::kBadRequest;
  if (name == "OVERLOADED") return ErrorCode::kOverloaded;
  if (name == "SHUTTING_DOWN") return ErrorCode::kShuttingDown;
  if (name == "INTERNAL") return ErrorCode::kInternal;
  if (name == "DEADLINE_EXCEEDED") return ErrorCode::kDeadlineExceeded;
  throw std::invalid_argument("sapd protocol: unknown error code '" +
                              std::string(name) + "'");
}

void encode_frame_header(unsigned char* out, FrameType type,
                         std::uint32_t payload_length) noexcept {
  put_u32(out, kFrameMagic);
  put_u32(out + 4, static_cast<std::uint32_t>(type));
  put_u32(out + 8, payload_length);
}

bool decode_frame_header(const unsigned char* in, FrameHeader* out) noexcept {
  out->magic = get_u32(in);
  out->type = get_u32(in + 4);
  out->length = get_u32(in + 8);
  return out->magic == kFrameMagic;
}

std::string encode_solve_request(const SolveRequest& request) {
  std::string payload = "sapd-solve v1\n";
  payload += "kind ";
  payload += workload_of(request.kind).name;
  payload += "\nalgo " + request.algo;
  payload += "\neps " + format_f64(request.eps);
  payload += "\nseed " + std::to_string(request.seed);
  if (request.deadline_ms > 0) {
    payload += "\ndeadline_ms " + std::to_string(request.deadline_ms);
  }
  if (request.want_certificate) payload += "\ncertify 1";
  payload += "\ninstance\n";
  payload += request.instance_text;
  return payload;
}

SolveRequest parse_solve_request(std::string_view payload) {
  EnvelopeParser parser(payload);
  parser.expect_line("sapd-solve v1");
  SolveRequest request;
  const std::string_view kind = parser.take("kind");
  const Workload* workload = find_workload(kind);
  if (workload == nullptr) {
    EnvelopeParser::fail("bad kind '" + std::string(kind.substr(0, 40)) +
                         "' (want " + workload_names() + ")");
  }
  request.kind = workload->kind;
  request.algo = std::string(parser.take("algo"));
  if (request.algo.empty() || request.algo.size() > 32) {
    EnvelopeParser::fail("bad algo name");
  }
  request.eps = parse_as<double>(parser.take("eps"), "eps");
  request.seed = parse_as<std::uint64_t>(parser.take("seed"), "seed");
  std::string_view deadline;
  if (parser.take_if("deadline_ms", &deadline)) {
    request.deadline_ms = parse_as<std::int64_t>(deadline, "deadline_ms");
    if (request.deadline_ms <= 0) {
      EnvelopeParser::fail("bad deadline_ms '" +
                           std::string(deadline.substr(0, 40)) +
                           "' (want a positive integer)");
    }
  }
  std::string_view certify;
  if (parser.take_if("certify", &certify)) {
    if (certify != "0" && certify != "1") {
      EnvelopeParser::fail("bad certify flag '" +
                           std::string(certify.substr(0, 40)) + "' (want 0|1)");
    }
    request.want_certificate = certify == "1";
  }
  parser.expect_line("instance");
  request.instance_text = std::string(parser.rest());
  return request;
}

std::string encode_solve_response(const SolveResponse& response) {
  std::string payload = "sapd-result v1\n";
  payload += "weight " + std::to_string(response.weight);
  payload += "\nplaced " + std::to_string(response.placed);
  payload += "\ntasks " + std::to_string(response.total_tasks);
  payload += "\nwall_micros " + std::to_string(response.wall_micros);
  payload += "\ntelemetry ";
  payload += response.telemetry_json.empty() ? "{}" : response.telemetry_json;
  if (response.is_round) {
    payload += "\nrounds " + std::to_string(response.rounds);
  }
  if (response.degraded) {
    payload += "\ndegraded 1";
    if (!response.skipped.empty()) payload += "\nskipped " + response.skipped;
  }
  if (!response.certificate_text.empty()) {
    payload += "\ncertificate " +
               std::to_string(response.certificate_text.size()) + "\n";
    payload += response.certificate_text;
    payload += "solution\n";
  } else {
    payload += "\nsolution\n";
  }
  payload += response.solution_text;
  return payload;
}

SolveResponse parse_solve_response(std::string_view payload) {
  EnvelopeParser parser(payload);
  parser.expect_line("sapd-result v1");
  SolveResponse response;
  response.weight = parse_as<std::int64_t>(parser.take("weight"), "weight");
  response.placed = parse_as<std::uint64_t>(parser.take("placed"), "placed");
  response.total_tasks = parse_as<std::uint64_t>(parser.take("tasks"), "tasks");
  response.wall_micros =
      parse_as<std::int64_t>(parser.take("wall_micros"), "wall_micros");
  response.telemetry_json = std::string(parser.take("telemetry"));
  std::string_view rounds;
  if (parser.take_if("rounds", &rounds)) {
    response.is_round = true;
    response.rounds = parse_as<std::uint64_t>(rounds, "rounds");
  }
  std::string_view degraded;
  if (parser.take_if("degraded", &degraded)) {
    if (degraded != "0" && degraded != "1") {
      EnvelopeParser::fail("bad degraded flag '" +
                           std::string(degraded.substr(0, 40)) +
                           "' (want 0|1)");
    }
    response.degraded = degraded == "1";
    std::string_view skipped;
    if (parser.take_if("skipped", &skipped)) {
      response.skipped = std::string(skipped);
    }
  }
  std::string_view cert_bytes;
  if (parser.take_if("certificate", &cert_bytes)) {
    const auto n = parse_as<std::int64_t>(cert_bytes, "certificate byte count");
    if (n < 0) EnvelopeParser::fail("negative certificate byte count");
    response.certificate_text = std::string(
        parser.take_bytes(static_cast<std::size_t>(n), "certificate"));
  }
  parser.expect_line("solution");
  response.solution_text = std::string(parser.rest());
  return response;
}

std::string encode_error_response(const ErrorResponse& error) {
  std::string payload = "sapd-error v1\ncode ";
  payload += error_code_name(error.code);
  payload += "\nmessage ";
  payload += error.message;
  return payload;
}

ErrorResponse parse_error_response(std::string_view payload) {
  EnvelopeParser parser(payload);
  parser.expect_line("sapd-error v1");
  ErrorResponse error;
  error.code = parse_error_code(parser.take("code"));
  error.message = std::string(parser.take("message"));
  const std::string_view more = parser.rest();
  if (!more.empty()) {
    error.message += '\n';
    error.message += more;
  }
  return error;
}

}  // namespace sap::service
