#ifndef IOLAP_TESTS_TEST_UTIL_H_
#define IOLAP_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/status.h"

namespace iolap {

/// Removes the directories MakeTempDir made once the test that made them
/// ends. gtest reports the end after the fixture is destroyed, so no
/// StorageEnv of the test still uses them; directories made outside any
/// test go when the program ends.
class TempDirCleaner : public ::testing::EmptyTestEventListener {
 public:
  /// The one cleaner, registered with gtest on first use (gtest owns it).
  static TempDirCleaner& Get() {
    static TempDirCleaner* cleaner = [] {
      auto* c = new TempDirCleaner;
      ::testing::UnitTest::GetInstance()->listeners().Append(c);
      return c;
    }();
    return *cleaner;
  }

  void Track(std::string dir) {
    std::lock_guard<std::mutex> lock(mu_);
    dirs_.push_back(std::move(dir));
  }

  void OnTestEnd(const ::testing::TestInfo&) override { RemoveAll(); }
  void OnTestProgramEnd(const ::testing::UnitTest&) override { RemoveAll(); }

 private:
  void RemoveAll() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& dir : dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    dirs_.clear();
  }

  std::mutex mu_;
  std::vector<std::string> dirs_;
};

/// Creates a fresh scratch directory for a test, removed when it ends.
inline std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "iolap_test_XXXXXX";
  char* dir = ::mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  if (dir != nullptr) TempDirCleaner::Get().Track(tmpl);
  return tmpl;
}

#define IOLAP_ASSERT_OK(expr)                                  \
  do {                                                         \
    const ::iolap::Status _st = (expr);                        \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (0)

#define IOLAP_EXPECT_OK(expr)                                  \
  do {                                                         \
    const ::iolap::Status _st = (expr);                        \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (0)

// Unwraps a Result<T> into `decl`, failing the test on error.
#define IOLAP_ASSERT_OK_AND_ASSIGN(decl, expr)                        \
  auto IOLAP_CONCAT(_assign_, __LINE__) = (expr);                     \
  ASSERT_TRUE(IOLAP_CONCAT(_assign_, __LINE__).ok())                  \
      << IOLAP_CONCAT(_assign_, __LINE__).status().ToString();        \
  decl = std::move(IOLAP_CONCAT(_assign_, __LINE__)).value()

}  // namespace iolap

#endif  // IOLAP_TESTS_TEST_UTIL_H_
