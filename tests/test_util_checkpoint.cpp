// util/checkpoint: atomic file writes + interrupt plumbing.
//
// The atomicity contract under test: whatever goes wrong between opening the
// temp file and the final rename — an unwritable directory, a temp path that
// cannot be opened, a rename that fails — the DESTINATION path is never
// created (or, when overwriting, never torn), and no temp litter survives a
// failed attempt.
#include "uld3d/util/checkpoint.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace uld3d {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool exists(const std::string& path) { return std::ifstream(path).good(); }

TEST(AtomicWrite, WritesContentExactly) {
  const std::string path = temp_path("atomic_exact.txt");
  std::remove(path.c_str());
  ASSERT_TRUE(write_file_atomic(path, "hello\nworld\n"));
  EXPECT_EQ(slurp(path), "hello\nworld\n");
  // No temp litter next to the destination.
  EXPECT_FALSE(exists(path + ".tmp." + std::to_string(getpid())));
}

TEST(AtomicWrite, OverwritesExistingFile) {
  const std::string path = temp_path("atomic_overwrite.txt");
  ASSERT_TRUE(write_file_atomic(path, "old"));
  ASSERT_TRUE(write_file_atomic(path, "new content"));
  EXPECT_EQ(slurp(path), "new content");
}

TEST(AtomicWrite, UnwritableDirectoryFailsWithoutCreatingAnything) {
  const std::string path = "/nonexistent-dir-zzz/file.txt";
  EXPECT_FALSE(write_file_atomic(path, "data"));
  EXPECT_FALSE(exists(path));
}

TEST(AtomicWrite, EmptyContentYieldsEmptyFile) {
  const std::string path = temp_path("atomic_empty.txt");
  ASSERT_TRUE(write_file_atomic(path, ""));
  EXPECT_TRUE(exists(path));
  EXPECT_EQ(slurp(path), "");
}

// A rename that fails after the temp file is complete (here: a directory
// sits at the destination) must not leave the temp file behind.
TEST(AtomicWrite, FailedRenameRemovesTempFile) {
  const std::string path = temp_path("atomic_rename_fails");
  const std::string temp = path + ".tmp." + std::to_string(getpid());
  std::remove(path.c_str());
  ASSERT_EQ(::mkdir(path.c_str(), 0700), 0);
  EXPECT_FALSE(write_file_atomic(path, "must never land"));
  EXPECT_FALSE(exists(temp));
  // The writer recovers fully once the obstacle is gone.
  ASSERT_EQ(::rmdir(path.c_str()), 0);
  ASSERT_TRUE(write_file_atomic(path, "landed"));
  EXPECT_EQ(slurp(path), "landed");
  std::remove(path.c_str());
}

// A temp file that cannot be opened (here: a directory occupies the temp
// path) fails the write before anything touches the destination.
TEST(AtomicWrite, FailedTempOpenPreservesPreviousContent) {
  const std::string path = temp_path("atomic_temp_blocked.txt");
  const std::string temp = path + ".tmp." + std::to_string(getpid());
  ASSERT_TRUE(write_file_atomic(path, "generation 1"));
  ASSERT_EQ(::mkdir(temp.c_str(), 0700), 0);
  EXPECT_FALSE(write_file_atomic(path, "generation 2"));
  ASSERT_EQ(::rmdir(temp.c_str()), 0);
  // Old complete file, not a torn mixture.
  EXPECT_EQ(slurp(path), "generation 1");
}

TEST(Interrupt, FlagIsClearByDefaultAndProgrammable) {
  set_interrupt_requested(false);
  EXPECT_FALSE(interrupt_requested());
  set_interrupt_requested(true);
  EXPECT_TRUE(interrupt_requested());
  EXPECT_EQ(interrupt_signal(), 0);  // programmatic set records no signal
  set_interrupt_requested(false);
  EXPECT_FALSE(interrupt_requested());
}

TEST(Interrupt, SigtermSetsFlagAndProcessSurvives) {
  set_interrupt_requested(false);
  install_interrupt_handlers();
  ASSERT_EQ(std::raise(SIGTERM), 0);
  // The handler latched the flag instead of killing us.
  EXPECT_TRUE(interrupt_requested());
  EXPECT_EQ(interrupt_signal(), SIGTERM);
  set_interrupt_requested(false);
}

TEST(Interrupt, InstallIsIdempotent) {
  install_interrupt_handlers();
  install_interrupt_handlers();
  set_interrupt_requested(false);
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(interrupt_requested());
  set_interrupt_requested(false);
}

}  // namespace
}  // namespace uld3d
