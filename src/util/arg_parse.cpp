#include "util/arg_parse.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"

namespace bnf {

namespace {

/// Parse the whole of `value` with `parse` (std::stoll / std::stod). A
/// malformed or out-of-range value names the flag instead of leaking the
/// library's bare "stoll"/"stod" message.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& value,
                 const char* what, Parse parse) {
  const auto bad_value = [&] {
    return precondition_error("arg_parser: bad " + std::string(what) +
                              " for --" + name + ": " + value);
  };
  std::size_t pos = 0;
  decltype(parse(value, &pos)) parsed{};
  try {
    parsed = parse(value, &pos);
  } catch (const std::invalid_argument&) {
    throw bad_value();
  } catch (const std::out_of_range&) {
    throw bad_value();
  }
  if (pos != value.size()) throw bad_value();
  return parsed;
}

long long parse_int(const std::string& name, const std::string& value) {
  return parse_whole(name, value, "integer",
                     [](const std::string& text, std::size_t* pos) {
                       return std::stoll(text, pos);
                     });
}

double parse_real(const std::string& name, const std::string& value) {
  return parse_whole(name, value, "number",
                     [](const std::string& text, std::size_t* pos) {
                       return std::stod(text, pos);
                     });
}

}  // namespace

arg_parser::arg_parser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void arg_parser::add_int(const std::string& name, std::int64_t default_value,
                         const std::string& help) {
  expects(!entries_.count(name), "arg_parser: duplicate flag " + name);
  entries_[name] = entry{kind::integer, help, std::to_string(default_value), ""};
  order_.push_back(name);
}

void arg_parser::add_double(const std::string& name, double default_value,
                            const std::string& help) {
  expects(!entries_.count(name), "arg_parser: duplicate flag " + name);
  std::ostringstream out;
  out << default_value;
  entries_[name] = entry{kind::real, help, out.str(), ""};
  order_.push_back(name);
}

void arg_parser::add_string(const std::string& name, std::string default_value,
                            const std::string& help) {
  expects(!entries_.count(name), "arg_parser: duplicate flag " + name);
  entries_[name] = entry{kind::text, help, std::move(default_value), ""};
  order_.push_back(name);
}

void arg_parser::add_flag(const std::string& name, const std::string& help) {
  expects(!entries_.count(name), "arg_parser: duplicate flag " + name);
  entries_[name] = entry{kind::boolean, help, "false", ""};
  order_.push_back(name);
}

void arg_parser::add_opt_double(const std::string& name, double default_value,
                                double bare_value, const std::string& help) {
  expects(!entries_.count(name), "arg_parser: duplicate flag " + name);
  std::ostringstream value;
  value << default_value;
  std::ostringstream bare;
  bare << bare_value;
  entries_[name] = entry{kind::optional_real, help, value.str(), bare.str()};
  order_.push_back(name);
}

parse_status arg_parser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      return parse_status::help_requested;
    }
    expects(token.rfind("--", 0) == 0,
            "arg_parser: expected --flag, got '" + token + "'");
    token = token.substr(2);

    std::string name = token;
    std::string value;
    bool have_value = false;
    if (const auto eq = token.find('='); eq != std::string::npos) {
      name = token.substr(0, eq);
      value = token.substr(eq + 1);
      have_value = true;
    }

    const auto it = entries_.find(name);
    expects(it != entries_.end(), "arg_parser: unknown flag --" + name);
    entry& e = it->second;
    expects(!e.set_by_user,
            "arg_parser: flag --" + name + " given more than once");

    if (e.type == kind::boolean && !have_value) {
      e.value = "true";
      e.set_by_user = true;
      continue;
    }
    if (e.type == kind::optional_real && !have_value) {
      // The value is optional: consume the next token only when it is not
      // another flag; bare `--name` takes the registered bare value.
      if (i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) == std::string::npos) {
        value = argv[++i];
        have_value = true;
      } else {
        e.value = e.bare_value;
        e.set_by_user = true;
        continue;
      }
    }
    if (!have_value) {
      expects(i + 1 < argc, "arg_parser: missing value for --" + name);
      value = argv[++i];
    }

    if (e.type == kind::integer) {
      e.value = std::to_string(parse_int(name, value));
    } else if (e.type == kind::real || e.type == kind::optional_real) {
      (void)parse_real(name, value);
      e.value = value;
    } else if (e.type == kind::boolean) {
      expects(value == "true" || value == "false",
              "arg_parser: bool flag --" + name + " wants true/false");
      e.value = value;
    } else {
      e.value = value;
    }
    e.set_by_user = true;
  }
  return parse_status::ok;
}

const arg_parser::entry& arg_parser::lookup(const std::string& name,
                                            kind expected) const {
  const auto it = entries_.find(name);
  expects(it != entries_.end(), "arg_parser: flag not registered: " + name);
  expects(it->second.type == expected,
          "arg_parser: flag type mismatch for " + name);
  return it->second;
}

std::int64_t arg_parser::get_int(const std::string& name) const {
  return parse_int(name, lookup(name, kind::integer).value);
}

double arg_parser::get_double(const std::string& name) const {
  const auto it = entries_.find(name);
  expects(it != entries_.end(), "arg_parser: flag not registered: " + name);
  expects(it->second.type == kind::real ||
              it->second.type == kind::optional_real,
          "arg_parser: flag type mismatch for " + name);
  return parse_real(name, it->second.value);
}

const std::string& arg_parser::get_string(const std::string& name) const {
  return lookup(name, kind::text).value;
}

bool arg_parser::get_flag(const std::string& name) const {
  return lookup(name, kind::boolean).value == "true";
}

bool arg_parser::was_set(const std::string& name) const {
  const auto it = entries_.find(name);
  expects(it != entries_.end(), "arg_parser: flag not registered: " + name);
  return it->second.set_by_user;
}

std::vector<std::pair<std::string, std::string>> arg_parser::items() const {
  std::vector<std::pair<std::string, std::string>> result;
  result.reserve(order_.size());
  for (const auto& name : order_) {
    result.emplace_back(name, entries_.at(name).value);
  }
  return result;
}

std::string arg_parser::usage() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const entry& e = entries_.at(name);
    out << "  --" << name;
    if (e.type == kind::optional_real) {
      out << " [value]";
    } else if (e.type != kind::boolean) {
      out << " <value>";
    }
    out << "  (default: " << e.value << ")  " << e.help << "\n";
  }
  out << "  --help  print this message\n";
  return out.str();
}

}  // namespace bnf
