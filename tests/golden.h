// Golden-file helpers shared by the test binaries. Goldens live in the
// source tree under tests/golden/ (PRAIRIE_TEST_DIR is set per target in
// tests/CMakeLists.txt). Setting PRAIRIE_REGEN_GOLDEN rewrites them in
// place — run from a checkout, review the diff, commit it.

#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

namespace prairie::golden {

inline std::string Path(const std::string& name) {
  return std::string(PRAIRIE_TEST_DIR "/golden/") + name;
}

inline bool Regen() {
  return std::getenv("PRAIRIE_REGEN_GOLDEN") != nullptr;
}

/// The committed contents of golden `name`, or nullopt if it is missing.
inline std::optional<std::string> Read(const std::string& name) {
  std::ifstream in(Path(name));
  if (!in.good()) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Overwrites golden `name` with `got`.
inline void Write(const std::string& got, const std::string& name) {
  std::ofstream out(Path(name), std::ios::out | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << Path(name);
  out << got;
}

/// Requires `got` to equal golden `name` byte for byte, or rewrites the
/// golden under PRAIRIE_REGEN_GOLDEN.
inline void Check(const std::string& got, const std::string& name) {
  if (Regen()) {
    Write(got, name);
    return;
  }
  const std::optional<std::string> want = Read(name);
  ASSERT_TRUE(want.has_value())
      << "missing golden file " << Path(name)
      << " (regenerate with PRAIRIE_REGEN_GOLDEN=1)";
  EXPECT_EQ(got, *want)
      << "output drifted from " << Path(name)
      << " (regenerate with PRAIRIE_REGEN_GOLDEN=1 and review the diff)";
}

}  // namespace prairie::golden
