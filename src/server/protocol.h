#ifndef SEMOPT_SERVER_PROTOCOL_H_
#define SEMOPT_SERVER_PROTOCOL_H_

#include <optional>
#include <string>
#include <string_view>

namespace semopt {

/// Wire format of the query server, chosen for lossless transport of
/// the shell's multi-line answers over a plain byte stream:
///
///   request:  one line, terminated by '\n' — exactly a shell input
///             line (statement, query, or .command).
///   response: zero or more body lines, then a terminator line holding
///             a single '.'. Body lines that start with '.' are
///             escaped by doubling the leading dot (SMTP-style), so
///             any response text — including lines that are just "." —
///             round-trips exactly.
///
/// An empty response (e.g. a comment line) is just the terminator.

/// Frames `body` (the processor's response text) for the wire:
/// dot-escapes each line, ensures every line is '\n'-terminated, and
/// appends the ".\n" terminator.
std::string EncodeResponse(std::string_view body);

/// Reverses EncodeResponse given the body lines received so far
/// (terminator excluded, escapes intact): strips one leading dot from
/// dot-escaped lines and joins with '\n'.
std::string DecodeBodyLine(std::string_view line);

/// Incremental line splitter over received bytes: feed chunks, pop
/// complete '\n'-terminated lines (the '\n' — and a preceding '\r', so
/// `nc -C`/telnet clients work — is stripped). Bytes after the last
/// newline stay buffered.
///
/// Popping advances a read offset instead of erasing the line from the
/// front of the buffer, so draining N pipelined lines costs O(total
/// bytes), not O(N * buffered bytes); the consumed prefix is compacted
/// away once it grows past half the buffer. A search for the next
/// newline resumes where the previous one stopped, so a long line that
/// arrives in many small chunks is scanned once, not once per chunk.
///
/// A line longer than kMaxLineBytes (terminated or not) overflows the
/// buffer: PopLine releases every buffered byte, `overflowed()` turns
/// true, and from then on Feed drops its input and PopLine returns
/// nullopt. The server answers an overflowed session with one error
/// response and closes it, so no client can grow a session's buffer
/// without bound.
class LineBuffer {
 public:
  /// Longest accepted line, terminator excluded.
  static constexpr size_t kMaxLineBytes = size_t{16} << 20;

  void Feed(std::string_view bytes) {
    if (!overflowed_) buffer_.append(bytes);
  }

  /// Next complete line, or nullopt when no full line is buffered (or
  /// the buffer has overflowed).
  std::optional<std::string> PopLine();

  bool overflowed() const { return overflowed_; }

 private:
  std::string buffer_;
  /// Bytes of `buffer_` already returned by PopLine.
  size_t read_ = 0;
  /// End of the newline-free run after `read_` that earlier searches
  /// already covered.
  size_t scanned_ = 0;
  bool overflowed_ = false;
};

}  // namespace semopt

#endif  // SEMOPT_SERVER_PROTOCOL_H_
