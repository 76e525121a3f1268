#include "support/Options.h"

#include "support/Error.h"
#include "support/StringUtils.h"

#include <cstdint>
#include <cstdio>
#include <string>

using namespace atmem;

OptionParser::OptionParser(std::string ToolDescription)
    : Description(std::move(ToolDescription)) {}

void OptionParser::addString(const std::string &Name,
                             const std::string &Default,
                             const std::string &Help) {
  Options.push_back({Name, OptionKind::String, Help, Default});
}

void OptionParser::addUnsigned(const std::string &Name, uint64_t Default,
                               const std::string &Help) {
  Options.push_back(
      {Name, OptionKind::Unsigned, Help, std::to_string(Default)});
}

void OptionParser::addDouble(const std::string &Name, double Default,
                             const std::string &Help) {
  Options.push_back({Name, OptionKind::Double, Help, formatDouble(Default, 6)});
}

void OptionParser::addFlag(const std::string &Name, const std::string &Help) {
  Options.push_back({Name, OptionKind::Flag, Help, "false"});
}

const OptionParser::Option *OptionParser::find(const std::string &Name) const {
  for (const Option &O : Options)
    if (O.Name == Name)
      return &O;
  return nullptr;
}

OptionParser::Option *OptionParser::find(const std::string &Name) {
  for (Option &O : Options)
    if (O.Name == Name)
      return &O;
  return nullptr;
}

bool OptionParser::parse(int Argc, const char *const *Argv) {
  if (Argc > 0)
    ProgramName = Argv[0];
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (!startsWith(Arg, "--")) {
      std::fprintf(stderr, "error: unexpected positional argument '%s'\n",
                   Arg.c_str());
      return false;
    }
    std::string Body = Arg.substr(2);
    std::string Name = Body;
    std::string Value;
    bool HasValue = false;
    if (size_t Eq = Body.find('='); Eq != std::string::npos) {
      Name = Body.substr(0, Eq);
      Value = Body.substr(Eq + 1);
      HasValue = true;
    }
    Option *O = find(Name);
    if (!O) {
      std::fprintf(stderr, "error: unknown option '--%s'\n", Name.c_str());
      return false;
    }
    if (!HasValue) {
      if (O->Kind == OptionKind::Flag) {
        Value = "true";
      } else if (I + 1 < Argc) {
        Value = Argv[++I];
      } else {
        std::fprintf(stderr, "error: option '--%s' expects a value\n",
                     Name.c_str());
        return false;
      }
    }
    O->Value = Value;
  }
  return true;
}

std::string OptionParser::getString(const std::string &Name) const {
  const Option *O = find(Name);
  if (!O)
    reportFatalError("unknown option queried: " + Name);
  return O->Value;
}

uint64_t OptionParser::getUnsigned(const std::string &Name) const {
  return parseUnsigned(getString(Name));
}

uint32_t OptionParser::getUnsigned32(const std::string &Name) const {
  uint64_t Value = getUnsigned(Name);
  if (Value > UINT32_MAX)
    reportFatalError("option '--" + Name + "' value " + std::to_string(Value) +
                     " does not fit in 32 bits");
  return static_cast<uint32_t>(Value);
}

double OptionParser::getDouble(const std::string &Name) const {
  return parseDoubleOrDie(getString(Name));
}

bool OptionParser::getFlag(const std::string &Name) const {
  return getString(Name) == "true";
}

std::string OptionParser::usage() const {
  std::string Out = Description + "\n\nOptions:\n";
  for (const Option &O : Options) {
    Out += "  --" + O.Name;
    if (O.Kind != OptionKind::Flag)
      Out += "=<" + std::string(O.Kind == OptionKind::String ? "str"
                                : O.Kind == OptionKind::Double
                                    ? "float"
                                    : "int") +
             ">";
    Out += "\n      " + O.Help + " (default: " + O.Value + ")\n";
  }
  return Out;
}
