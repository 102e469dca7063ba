#include "fs/path.h"

namespace sash::fs {

bool IsAbsolute(std::string_view path) { return !path.empty() && path.front() == '/'; }

std::vector<std::string> SplitPath(std::string_view path) {
  std::vector<std::string> parts;
  size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') {
      ++i;
    }
    size_t start = i;
    while (i < path.size() && path[i] != '/') {
      ++i;
    }
    if (i > start) {
      parts.emplace_back(path.substr(start, i - start));
    }
  }
  return parts;
}

std::string JoinPath(std::string_view base, std::string_view rel) {
  if (IsAbsolute(rel) || base.empty()) {
    return std::string(rel);
  }
  if (rel.empty()) {
    return std::string(base);
  }
  std::string out(base);
  if (out.back() != '/') {
    out += '/';
  }
  out += rel;
  return out;
}

std::string NormalizePath(std::string_view path) {
  const bool absolute = IsAbsolute(path);
  std::string out = absolute ? "/" : "";
  out.reserve(path.size());
  // Bytes ".." cannot pop: the root "/", or a relative path's leading "..".
  size_t floor = out.size();
  size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') {
      ++i;
    }
    size_t start = i;
    while (i < path.size() && path[i] != '/') {
      ++i;
    }
    std::string_view part = path.substr(start, i - start);
    if (part.empty() || part == ".") {
      continue;
    }
    if (part == "..") {
      if (out.size() > floor) {
        // Pop the last segment with its separator.
        size_t slash = out.rfind('/');
        out.resize(slash == std::string::npos || slash < floor ? floor : slash);
        continue;
      }
      if (absolute) {
        continue;  // ".." at the root stays at the root.
      }
    }
    if (out.size() > (absolute ? 1 : 0)) {
      out += '/';
    }
    out += part;
    if (part == "..") {
      floor = out.size();  // Relative paths keep leading "..".
    }
  }
  if (out.empty()) {
    return ".";
  }
  return out;
}

std::string DirName(std::string_view path) {
  std::string norm = NormalizePath(path);
  size_t pos = norm.rfind('/');
  if (pos == std::string::npos) {
    return ".";
  }
  if (pos == 0) {
    return "/";
  }
  return norm.substr(0, pos);
}

std::string BaseName(std::string_view path) {
  std::string norm = NormalizePath(path);
  if (norm == "/") {
    return "/";
  }
  size_t pos = norm.rfind('/');
  if (pos == std::string::npos) {
    return norm;
  }
  return norm.substr(pos + 1);
}

std::string Absolutize(std::string_view path, std::string_view cwd) {
  if (IsAbsolute(path)) {
    return NormalizePath(path);
  }
  return NormalizePath(JoinPath(cwd, path));
}

}  // namespace sash::fs
