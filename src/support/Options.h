//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal command-line option parser for the benchmark harnesses and
/// examples. Supports "--name=value", "--name value", and boolean
/// "--flag" forms, plus automatic --help generation.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_SUPPORT_OPTIONS_H
#define ATMEM_SUPPORT_OPTIONS_H

#include <cstdint>
#include <string>
#include <vector>

namespace atmem {

/// Declarative registry of options for one tool. Register options, then call
/// parse(); values are readable afterwards through the typed getters.
class OptionParser {
public:
  explicit OptionParser(std::string ToolDescription);

  /// Registers a string option with a default value.
  void addString(const std::string &Name, const std::string &Default,
                 const std::string &Help);

  /// Registers an unsigned integer option with a default value.
  void addUnsigned(const std::string &Name, uint64_t Default,
                   const std::string &Help);

  /// Registers a floating point option with a default value.
  void addDouble(const std::string &Name, double Default,
                 const std::string &Help);

  /// Registers a boolean flag (defaults to false; presence sets true,
  /// "--name=false" clears).
  void addFlag(const std::string &Name, const std::string &Help);

  /// Parses argv. Returns false (after printing usage) when --help was
  /// requested or an unknown/malformed option was seen.
  bool parse(int Argc, const char *const *Argv);

  std::string getString(const std::string &Name) const;
  uint64_t getUnsigned(const std::string &Name) const;
  /// getUnsigned() for 32-bit settings: aborts with a fatal error when the
  /// value does not fit, instead of letting the caller's cast wrap it.
  uint32_t getUnsigned32(const std::string &Name) const;
  double getDouble(const std::string &Name) const;
  bool getFlag(const std::string &Name) const;

  /// Renders the --help text.
  std::string usage() const;

private:
  enum class OptionKind { String, Unsigned, Double, Flag };

  struct Option {
    std::string Name;
    OptionKind Kind;
    std::string Help;
    std::string Value; // Canonical textual form.
  };

  const Option *find(const std::string &Name) const;
  Option *find(const std::string &Name);

  std::string Description;
  std::string ProgramName;
  std::vector<Option> Options;
};

} // namespace atmem

#endif // ATMEM_SUPPORT_OPTIONS_H
