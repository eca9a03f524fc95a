#include "server/protocol.h"

namespace semopt {

std::string EncodeResponse(std::string_view body) {
  std::string out;
  out.reserve(body.size() + 8);
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    std::string_view line = body.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    if (!line.empty() && line.front() == '.') out.push_back('.');
    out.append(line);
    out.push_back('\n');
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  out.append(".\n");
  return out;
}

std::string DecodeBodyLine(std::string_view line) {
  if (line.size() >= 2 && line[0] == '.' && line[1] == '.') {
    line.remove_prefix(1);
  }
  return std::string(line);
}

std::optional<std::string> LineBuffer::PopLine() {
  if (overflowed_) return std::nullopt;
  const size_t eol = buffer_.find('\n', scanned_);
  const size_t line_end = eol == std::string::npos ? buffer_.size() : eol;
  if (line_end - read_ > kMaxLineBytes) {
    overflowed_ = true;
    std::string().swap(buffer_);
    read_ = scanned_ = 0;
    return std::nullopt;
  }
  if (eol == std::string::npos) {
    scanned_ = buffer_.size();
    return std::nullopt;
  }
  size_t end = eol;
  if (end > read_ && buffer_[end - 1] == '\r') --end;
  std::string line = buffer_.substr(read_, end - read_);
  read_ = scanned_ = eol + 1;
  // Compact once the consumed prefix outweighs the unread tail: each
  // byte moves O(1) times amortized, however long the pipeline.
  if (read_ * 2 > buffer_.size()) {
    buffer_.erase(0, read_);
    read_ = scanned_ = 0;
  }
  return line;
}

}  // namespace semopt
