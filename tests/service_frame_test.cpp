// Unit tests for the sapd wire protocol: header codec, fd-level framing
// (over pipes — no network needed), and the text envelopes.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "src/service/frame.hpp"
#include "src/service/protocol.hpp"

namespace sap::service {
namespace {

/// RAII pipe pair for framing tests.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    close_read();
    close_write();
  }
  void close_read() {
    if (fds[0] >= 0) ::close(fds[0]);
    fds[0] = -1;
  }
  void close_write() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
  [[nodiscard]] int r() const { return fds[0]; }
  [[nodiscard]] int w() const { return fds[1]; }
};

TEST(FrameHeaderTest, EncodeDecodeRoundTrip) {
  unsigned char bytes[kFrameHeaderBytes];
  encode_frame_header(bytes, FrameType::kSolveRequest, 0xDEADBEEF);
  FrameHeader header;
  ASSERT_TRUE(decode_frame_header(bytes, &header));
  EXPECT_EQ(header.magic, kFrameMagic);
  EXPECT_EQ(header.type,
            static_cast<std::uint32_t>(FrameType::kSolveRequest));
  EXPECT_EQ(header.length, 0xDEADBEEFu);
}

TEST(FrameHeaderTest, WireLayoutIsLittleEndianWithSapdMagic) {
  unsigned char bytes[kFrameHeaderBytes];
  encode_frame_header(bytes, FrameType::kStatsRequest, 0x0102);
  // Magic reads "SAPD" as raw bytes.
  EXPECT_EQ(bytes[0], 'S');
  EXPECT_EQ(bytes[1], 'A');
  EXPECT_EQ(bytes[2], 'P');
  EXPECT_EQ(bytes[3], 'D');
  EXPECT_EQ(bytes[4], 2);  // type LE
  EXPECT_EQ(bytes[8], 0x02);  // length LE
  EXPECT_EQ(bytes[9], 0x01);
}

TEST(FrameHeaderTest, RejectsBadMagic) {
  unsigned char bytes[kFrameHeaderBytes] = {'n', 'o', 'p', 'e'};
  FrameHeader header;
  EXPECT_FALSE(decode_frame_header(bytes, &header));
}

TEST(FrameIoTest, RoundTripOverPipe) {
  Pipe pipe;
  const std::string payload = "sapd-solve v1\nhello";
  ASSERT_TRUE(write_frame(pipe.w(), FrameType::kSolveRequest, payload));
  Frame frame;
  ASSERT_EQ(read_frame(pipe.r(), &frame), ReadStatus::kOk);
  EXPECT_EQ(frame.type, static_cast<std::uint32_t>(FrameType::kSolveRequest));
  EXPECT_EQ(frame.payload, payload);
}

TEST(FrameIoTest, EmptyPayloadFrame) {
  Pipe pipe;
  ASSERT_TRUE(write_frame(pipe.w(), FrameType::kStatsRequest, ""));
  Frame frame;
  ASSERT_EQ(read_frame(pipe.r(), &frame), ReadStatus::kOk);
  EXPECT_EQ(frame.type, static_cast<std::uint32_t>(FrameType::kStatsRequest));
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameIoTest, CleanCloseIsEof) {
  Pipe pipe;
  pipe.close_write();
  Frame frame;
  EXPECT_EQ(read_frame(pipe.r(), &frame), ReadStatus::kEof);
}

TEST(FrameIoTest, CloseInsideHeaderIsTruncated) {
  Pipe pipe;
  const unsigned char partial[3] = {'S', 'A', 'P'};
  ASSERT_EQ(::write(pipe.w(), partial, sizeof(partial)), 3);
  pipe.close_write();
  Frame frame;
  EXPECT_EQ(read_frame(pipe.r(), &frame), ReadStatus::kTruncated);
}

TEST(FrameIoTest, CloseInsidePayloadIsTruncated) {
  Pipe pipe;
  unsigned char header[kFrameHeaderBytes];
  encode_frame_header(header, FrameType::kSolveRequest, 100);
  ASSERT_EQ(::write(pipe.w(), header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  ASSERT_EQ(::write(pipe.w(), "abc", 3), 3);
  pipe.close_write();
  Frame frame;
  EXPECT_EQ(read_frame(pipe.r(), &frame), ReadStatus::kTruncated);
}

TEST(FrameIoTest, GarbageMagicRejected) {
  Pipe pipe;
  const unsigned char garbage[kFrameHeaderBytes] = {0xff, 0xfe, 0xfd, 0xfc};
  ASSERT_EQ(::write(pipe.w(), garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));
  Frame frame;
  EXPECT_EQ(read_frame(pipe.r(), &frame), ReadStatus::kBadMagic);
}

TEST(FrameIoTest, OversizedDeclaredLengthRejectedBeforeRead) {
  Pipe pipe;
  unsigned char header[kFrameHeaderBytes];
  encode_frame_header(header, FrameType::kSolveRequest, 1 << 20);
  ASSERT_EQ(::write(pipe.w(), header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  Frame frame;
  // Ceiling below the declared length: rejected without reading a payload
  // byte (nothing was even written into the pipe).
  EXPECT_EQ(read_frame(pipe.r(), &frame, /*max_payload=*/1024),
            ReadStatus::kTooLarge);
}

TEST(FrameIoTest, LargePayloadCrossesPipeBufferBoundary) {
  Pipe pipe;
  // Larger than the default 64 KiB pipe buffer: forces partial reads and
  // writes, so a writer thread is required.
  const std::string payload(1 << 20, 'x');
  std::thread writer([&] {
    EXPECT_TRUE(write_frame(pipe.w(), FrameType::kSolveResponse, payload));
  });
  Frame frame;
  EXPECT_EQ(read_frame(pipe.r(), &frame, payload.size()), ReadStatus::kOk);
  writer.join();
  EXPECT_EQ(frame.payload, payload);
}

TEST(ProtocolTest, SolveRequestRoundTrip) {
  SolveRequest request;
  request.kind = SolveRequest::Kind::kRing;
  request.algo = "full";
  request.eps = 0.1;  // not exactly representable — hexfloat must round-trip
  request.seed = 0xDEADBEEFCAFEull;
  request.instance_text = "sap-ring v1\nedges 3\n# comment\n";
  const SolveRequest back = parse_solve_request(encode_solve_request(request));
  EXPECT_EQ(back.kind, SolveRequest::Kind::kRing);
  EXPECT_EQ(back.algo, request.algo);
  EXPECT_EQ(back.eps, request.eps);  // bit-exact
  EXPECT_EQ(back.seed, request.seed);
  EXPECT_EQ(back.instance_text, request.instance_text);
}

TEST(ProtocolTest, SolveResponseRoundTrip) {
  SolveResponse response;
  response.weight = -7;
  response.placed = 3;
  response.total_tasks = 9;
  response.wall_micros = 123456;
  response.telemetry_json = "{\"sap.winner.small\": 1}";
  response.solution_text = "sap-solution v1\nplacements 1\n0 4\n";
  const SolveResponse back =
      parse_solve_response(encode_solve_response(response));
  EXPECT_EQ(back.weight, response.weight);
  EXPECT_EQ(back.placed, response.placed);
  EXPECT_EQ(back.total_tasks, response.total_tasks);
  EXPECT_EQ(back.wall_micros, response.wall_micros);
  EXPECT_EQ(back.telemetry_json, response.telemetry_json);
  EXPECT_EQ(back.solution_text, response.solution_text);
}

TEST(ProtocolTest, ErrorResponseRoundTripIncludingMultilineMessage) {
  const ErrorResponse error{ErrorCode::kBadRequest,
                            "instance_io: line 3: expected capacity\nmore"};
  const ErrorResponse back =
      parse_error_response(encode_error_response(error));
  EXPECT_EQ(back.code, ErrorCode::kBadRequest);
  EXPECT_EQ(back.message, error.message);
}

TEST(ProtocolTest, ErrorCodeNamesRoundTrip) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kOverloaded,
        ErrorCode::kShuttingDown, ErrorCode::kInternal,
        ErrorCode::kDeadlineExceeded}) {
    EXPECT_EQ(parse_error_code(error_code_name(code)), code);
  }
  EXPECT_THROW((void)parse_error_code("NOT_A_CODE"), std::invalid_argument);
}

TEST(ProtocolTest, DeadlineLineRoundTripsAndStaysOptional) {
  SolveRequest request;
  request.deadline_ms = 250;
  request.instance_text = "sap-path v1\nedges 1\n";
  const std::string payload = encode_solve_request(request);
  EXPECT_NE(payload.find("\ndeadline_ms 250\n"), std::string::npos);
  EXPECT_EQ(parse_solve_request(payload).deadline_ms, 250);

  // Old clients never emit the line; absence parses as "no deadline".
  request.deadline_ms = 0;
  const std::string old_payload = encode_solve_request(request);
  EXPECT_EQ(old_payload.find("deadline_ms"), std::string::npos);
  EXPECT_EQ(parse_solve_request(old_payload).deadline_ms, 0);

  // A non-positive deadline on the wire is a malformed request, not a
  // silent "unlimited".
  std::string bad = payload;
  bad.replace(bad.find("deadline_ms 250"), 15, "deadline_ms 0\n ");
  EXPECT_THROW((void)parse_solve_request(bad), std::invalid_argument);
}

TEST(ProtocolTest, DegradedResponseRoundTripsAndStaysOptional) {
  SolveResponse response;
  response.weight = 4;
  response.degraded = true;
  response.skipped = "solve.exact,cert.sap_exact_dp";
  response.telemetry_json = "{}";
  response.solution_text = "sap-solution v1\nplacements 0\n";
  const std::string payload = encode_solve_response(response);
  EXPECT_NE(payload.find("\ndegraded 1\n"), std::string::npos);
  EXPECT_NE(payload.find("\nskipped solve.exact,cert.sap_exact_dp\n"),
            std::string::npos);
  const SolveResponse back = parse_solve_response(payload);
  EXPECT_TRUE(back.degraded);
  EXPECT_EQ(back.skipped, response.skipped);

  // Responses from servers that never degrade omit both lines.
  response.degraded = false;
  response.skipped.clear();
  const std::string plain = encode_solve_response(response);
  EXPECT_EQ(plain.find("degraded"), std::string::npos);
  EXPECT_EQ(plain.find("skipped"), std::string::npos);
  const SolveResponse plain_back = parse_solve_response(plain);
  EXPECT_FALSE(plain_back.degraded);
  EXPECT_TRUE(plain_back.skipped.empty());
}

TEST(FrameIoTest, ReceiveTimeoutIsTypedNotIoError) {
  // SO_RCVTIMEO needs a socket; a unix socketpair stands in for TCP.
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  timeval tv{.tv_sec = 0, .tv_usec = 50'000};
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);

  // Peer sends nothing: the read times out before any header byte.
  Frame frame;
  EXPECT_EQ(read_frame(sv[0], &frame), ReadStatus::kTimedOut);

  // Peer sends half a header and stalls: still a typed timeout, and the
  // caller's poisoned-connection contract applies.
  const unsigned char half[4] = {'S', 'A', 'P', 'D'};
  ASSERT_EQ(::write(sv[1], half, sizeof(half)), 4);
  EXPECT_EQ(read_frame(sv[0], &frame), ReadStatus::kTimedOut);

  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(FrameIoTest, WriteStatusNamesAreStable) {
  EXPECT_STREQ(write_status_name(WriteStatus::kOk), "OK");
  EXPECT_STREQ(write_status_name(WriteStatus::kTimedOut), "TIMED_OUT");
  EXPECT_STREQ(write_status_name(WriteStatus::kError), "IO_ERROR");
  EXPECT_STREQ(read_status_name(ReadStatus::kTimedOut), "TIMED_OUT");
}

TEST(ProtocolTest, CertifyRequestLineRoundTripsAndStaysOptional) {
  SolveRequest request;
  request.want_certificate = true;
  request.instance_text = "sap-path v1\nedges 1\n";
  const std::string payload = encode_solve_request(request);
  EXPECT_NE(payload.find("\ncertify 1\n"), std::string::npos);
  EXPECT_TRUE(parse_solve_request(payload).want_certificate);

  // Old clients never emit the line; absence parses as "no certificate".
  request.want_certificate = false;
  const std::string old_payload = encode_solve_request(request);
  EXPECT_EQ(old_payload.find("certify"), std::string::npos);
  EXPECT_FALSE(parse_solve_request(old_payload).want_certificate);
}

TEST(ProtocolTest, CertificateSectionRoundTripsNested) {
  SolveResponse response;
  response.weight = 12;
  response.telemetry_json = "{}";
  // The certificate text deliberately contains envelope keywords; the
  // length prefix is what delimits it, not line content.
  response.certificate_text =
      "sap-cert v1\nkind path\nweight 12\nrung total_weight\nub 30\n"
      "alpha 5 2\nprices 1 0\nend\n";
  response.solution_text = "sap-solution v1\nplacements 0\n";
  const SolveResponse back =
      parse_solve_response(encode_solve_response(response));
  EXPECT_EQ(back.certificate_text, response.certificate_text);
  EXPECT_EQ(back.solution_text, response.solution_text);

  // No certificate -> no section, and old parsers see the old envelope.
  response.certificate_text.clear();
  const std::string payload = encode_solve_response(response);
  EXPECT_EQ(payload.find("certificate"), std::string::npos);
  EXPECT_TRUE(parse_solve_response(payload).certificate_text.empty());
}

TEST(ProtocolTest, MalformedCertificateSectionsRejected) {
  EXPECT_THROW(parse_solve_request("sapd-solve v1\nkind path\nalgo full\n"
                                   "eps 0.5\nseed 1\ncertify 2\ninstance\n"),
               std::invalid_argument);
  const std::string head =
      "sapd-result v1\nweight 1\nplaced 0\ntasks 0\nwall_micros 1\n"
      "telemetry {}\n";
  EXPECT_THROW(parse_solve_response(head + "certificate -5\nsolution\n"),
               std::invalid_argument);
  // Declared length runs past the payload: truncated, not silently short.
  EXPECT_THROW(parse_solve_response(head + "certificate 9999\nabc"),
               std::invalid_argument);
  EXPECT_THROW(parse_solve_response(head + "certificate banana\nsolution\n"),
               std::invalid_argument);
}

TEST(ProtocolTest, MalformedEnvelopesRejected) {
  EXPECT_THROW(parse_solve_request(""), std::invalid_argument);
  EXPECT_THROW(parse_solve_request("sapd-solve v2\n"), std::invalid_argument);
  EXPECT_THROW(parse_solve_request("sapd-solve v1\nkind tree\n"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_solve_request("sapd-solve v1\nkind path\nalgo full\neps nan!\n"),
      std::invalid_argument);
  EXPECT_THROW(parse_solve_request("sapd-solve v1\nkind path\nalgo full\n"
                                   "eps 0.5\nseed -1x\ninstance\n"),
               std::invalid_argument);
  // Missing the "instance" separator line.
  EXPECT_THROW(parse_solve_request("sapd-solve v1\nkind path\nalgo full\n"
                                   "eps 0.5\nseed 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_solve_response("sapd-result v1\nweight banana\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_error_response("sapd-error v1\ncode NOPE\nmessage x"),
               std::invalid_argument);
  // A minus sign on an unsigned field must not wrap around to 2^64 - k.
  EXPECT_THROW(parse_solve_request("sapd-solve v1\nkind path\nalgo full\n"
                                   "eps 0.5\nseed -1\ninstance\n"),
               std::invalid_argument);
  for (const char* payload :
       {"sapd-result v1\nweight 5\nplaced -2\ntasks 3\nwall_micros 0\n"
        "telemetry {}\nsolution\n",
        "sapd-result v1\nweight 5\nplaced 2\ntasks -1\nwall_micros 0\n"
        "telemetry {}\nsolution\n",
        "sapd-result v1\nweight 5\nplaced 2\ntasks 3\nwall_micros 0\n"
        "telemetry {}\nrounds -1\nsolution\n"}) {
    EXPECT_THROW(parse_solve_response(payload), std::invalid_argument)
        << payload;
  }
}

TEST(ProtocolTest, RoundKindsRoundTripAndUnknownKindsRejected) {
  for (const auto& [kind, name] :
       {std::pair{SolveRequest::Kind::kRoundUfp, "round-ufp"},
        std::pair{SolveRequest::Kind::kRoundSap, "round-sap"}}) {
    SolveRequest request;
    request.kind = kind;
    request.algo = "exact";
    request.instance_text = "sap-path v1\nedges 1\ncapacities 4\ntasks 0\n";
    const std::string payload = encode_solve_request(request);
    EXPECT_NE(payload.find(std::string("\nkind ") + name + "\n"),
              std::string::npos)
        << payload;
    EXPECT_EQ(parse_solve_request(payload).kind, kind);
  }
  // A kind the workload table does not list is a parse error.
  SolveRequest probe;
  probe.instance_text = "sap-path v1\nedges 1\ncapacities 4\ntasks 0\n";
  std::string payload = encode_solve_request(probe);
  const std::size_t at = payload.find("\nkind path\n");
  ASSERT_NE(at, std::string::npos);
  payload.replace(at, 11, "\nkind hyper\n");
  EXPECT_THROW((void)parse_solve_request(payload), std::invalid_argument);
}

TEST(ProtocolTest, RoundsResponseLineRoundTripsAndStaysOptional) {
  SolveResponse response;
  response.weight = 12;
  response.placed = 5;
  response.total_tasks = 5;
  response.is_round = true;
  response.rounds = 3;
  response.telemetry_json = "{}";
  response.solution_text = "round-solution v1\nkind round-ufp\nrounds 3\n"
                           "round 0\nround 0\nround 0\n";
  const std::string payload = encode_solve_response(response);
  EXPECT_NE(payload.find("\nrounds 3\n"), std::string::npos) << payload;
  const SolveResponse back = parse_solve_response(payload);
  EXPECT_TRUE(back.is_round);
  EXPECT_EQ(back.rounds, 3u);
  EXPECT_EQ(back.solution_text, response.solution_text);

  // Single-round responses (and old servers) never emit the line.
  response.is_round = false;
  response.rounds = 0;
  response.solution_text = "sap-solution v1\nplacements 0\n";
  const std::string plain = encode_solve_response(response);
  EXPECT_EQ(plain.find("\nrounds "), std::string::npos);
  const SolveResponse plain_back = parse_solve_response(plain);
  EXPECT_FALSE(plain_back.is_round);
  EXPECT_EQ(plain_back.rounds, 0u);
}

}  // namespace
}  // namespace sap::service
